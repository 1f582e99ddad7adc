"""Simplex sectioning, convex coefficients, and the rank dispatchers."""

import functools
from fractions import Fraction
from typing import Tuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exactnmf import section
from exactnmf.cyclic import CyclicLabeling
from exactnmf.errors import (
    DimensionError,
    ExactNMFError,
    InternalError,
    OutsidePolygon,
    RankError,
)
from exactnmf.generate import (
    random_convex_polygon,
    random_rank3_seven_by_n,
    random_rank_one,
    random_rank_two,
)
from exactnmf.linalg import (
    Inconsistency,
    Matrix,
    clear_denominators,
    insert_zero_lines,
    is_product,
    rank,
    solve,
)
from exactnmf.polygon import slack_matrix
from exactnmf.rng import SplitMix64
from exactnmf.section import (
    SectionPolygon,
    SectionVertex,
    _check_seven_rows_rank3,
    convex_coefficients,
    factor_low_rank,
    factor_seven_by_n,
    section_polygon,
)
from exactnmf.validation import check_nonnegative

from conftest import primitive_columns
from test_cyclic import fraction_factor_cyclic


def _positive_minor(u, v):
    """(i1, i2, m): the first nonzero 2x2 minor m = u[i1]*v[i2] - u[i2]*v[i1]
    of two columns, its rows swapped where that makes it positive: the
    chart code below and ``oracle_section_basis`` call it."""
    for i1 in range(len(u)):
        for i2 in range(i1 + 1, len(u)):
            m = u[i1] * v[i2] - u[i2] * v[i1]
            if m:
                return (i1, i2, m) if m > 0 else (i2, i1, -m)
    raise InternalError("section chart axes are parallel")


def cleared(a: Matrix):
    """The columns of ``a`` as the section core reads them: (c, d) with
    column == c / d."""
    return [clear_denominators(col) for col in zip(*a.data)]


def identity_columns(count):
    return Matrix.from_columns(
        [tuple(1 if i == j else 0 for i in range(7)) for j in range(count)]
    )


class TestNormalizeColumns:
    def test_simple_column(self):
        a = Matrix.from_columns([(2, 0, 2, 0, 0, 0, 0)])
        normalized, sums, zero_cols = normalize_columns(a)
        assert normalized.column(0) == (
            Fraction(1, 2), 0, Fraction(1, 2), 0, 0, 0, 0,
        )
        assert sums == (4,)
        assert zero_cols == ()

    def test_zero_column_recorded(self):
        a = Matrix.from_columns([(1, 1), (0, 0), (3, 0)])
        normalized, sums, zero_cols = normalize_columns(a)
        assert zero_cols == (1,)
        assert normalized.cols == 2
        assert sums == (2, 3)

    def test_round_trip(self):
        rng = SplitMix64(51)
        for _ in range(20):
            rows, cols = rng.below(5) + 1, rng.below(6) + 1
            data = [
                [Fraction(rng.below(5), rng.below(3) + 1) for _ in range(cols)]
                for _ in range(rows)
            ]
            a = Matrix(data)
            normalized, sums, zero_cols = normalize_columns(a)
            rebuilt_cols = []
            src = 0
            for j in range(cols):
                if j in zero_cols:
                    rebuilt_cols.append((Fraction(0),) * rows)
                else:
                    col = normalized.column(src)
                    rebuilt_cols.append(tuple(x * sums[src] for x in col))
                    src += 1
            assert Matrix.from_columns(rebuilt_cols) == a


class TestSectionPolygon:
    def test_coordinate_simplex_face(self):
        poly = section_polygon(identity_columns(3))
        assert poly.k == 3
        ambient = sorted(v.ambient for v in poly.vertices)
        expected = sorted(
            tuple(Fraction(1 if i == j else 0) for i in range(7)) for j in range(3)
        )
        assert ambient == expected

    def test_h7_slack_sections_to_seven_vertices(self, h7_slack):
        poly = section_polygon(h7_slack)
        assert poly.k == 7
        for vertex in poly.vertices:
            assert len(vertex.tight) == 2

    def test_vertices_satisfy_membership_exactly(self, h7_slack):
        poly = section_polygon(h7_slack)
        for vertex in poly.vertices:
            assert sum(vertex.ambient) == 1
            for i, x in enumerate(vertex.ambient):
                if i in vertex.tight:
                    assert x == 0
                else:
                    assert x > 0

    def test_vertices_ordered_counterclockwise(self, h7_slack):
        poly = section_polygon(h7_slack)
        pts = [v.chart for v in poly.vertices]
        k = len(pts)
        for i in range(k):
            o, a, b = pts[i], pts[(i + 1) % k], pts[(i + 2) % k]
            cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
            assert cross > 0

    def test_rank_enforced(self):
        with pytest.raises(RankError):
            section_polygon(identity_columns(4))

    def test_row_count_enforced(self):
        with pytest.raises(DimensionError):
            section_polygon(Matrix.identity(3))


class TestConvexCoefficients:
    def test_vertex_gives_unit_vector(self, h7_slack):
        poly = section_polygon(h7_slack)
        for t, vertex in enumerate(poly.vertices):
            coeffs = convex_coefficients(poly, vertex.ambient)
            assert coeffs[t] == 1
            assert all(c == 0 for s, c in enumerate(coeffs) if s != t)

    def test_edge_midpoint(self, h7_slack):
        poly = section_polygon(h7_slack)
        va, vb = poly.vertices[2].ambient, poly.vertices[3].ambient
        midpoint = tuple((x + y) / 2 for x, y in zip(va, vb))
        coeffs = convex_coefficients(poly, midpoint)
        assert coeffs[2] == Fraction(1, 2) and coeffs[3] == Fraction(1, 2)
        assert sum(coeffs) == 1

    def test_normalized_columns_reproduce(self):
        rng = SplitMix64(52)
        a = random_rank3_seven_by_n(rng, 12)
        poly = section_polygon(a)
        normalized, _, _ = normalize_columns(a)
        for j in range(normalized.cols):
            col = normalized.column(j)
            coeffs = convex_coefficients(poly, col)
            assert sum(coeffs) == 1
            assert all(c >= 0 for c in coeffs)
            assert sum(1 for c in coeffs if c != 0) <= 3
            rebuilt = tuple(
                sum(coeffs[s] * poly.vertices[s].ambient[i] for s in range(poly.k))
                for i in range(7)
            )
            assert rebuilt == col

    def test_outside_point_rejected(self, h7_slack):
        poly = section_polygon(h7_slack)
        va, vb = poly.vertices[0].ambient, poly.vertices[1].ambient
        outside = tuple(2 * x - y for x, y in zip(va, vb))  # beyond vertex 0
        with pytest.raises(OutsidePolygon):
            convex_coefficients(poly, outside)

    def test_point_off_plane_rejected(self, h7_slack):
        poly = section_polygon(h7_slack)
        with pytest.raises(OutsidePolygon):
            convex_coefficients(poly, (1, 0, 0, 0, 0, 0, 0))


class TestFactorSevenByN:
    def test_pentagon_section_inner_five(self):
        rng = SplitMix64(53)
        s5 = slack_matrix(random_convex_polygon(rng, 5)).matrix
        rows = s5.tolist()
        # two redundant constraints: sums of facet rows with disjoint zeros
        rows.append([a + b for a, b in zip(s5.row(0), s5.row(2))])
        rows.append([a + b for a, b in zip(s5.row(1), s5.row(3))])
        a = Matrix(rows)
        assert rank(a) == 3
        left, right, info = factor_seven_by_n(a)
        assert left.cols == 5
        assert left @ right == a
        assert info["method"] == "section"

    def test_h7_slack_inner_six(self, h7_slack):
        left, right, info = factor_seven_by_n(h7_slack)
        assert left.cols == 6
        assert left @ right == h7_slack
        assert left.is_nonnegative() and right.is_nonnegative()
        assert info["method"] == "section+cyclic"

    def test_random_7xn_instances(self):
        rng = SplitMix64(54)
        for _ in range(8):
            a = random_rank3_seven_by_n(rng, 20)
            left, right, _ = factor_seven_by_n(a)
            assert left.cols <= 6
            assert left @ right == a
            assert left.is_nonnegative() and right.is_nonnegative()

    def test_proportional_rows_merge_to_smaller_section(self):
        # a duplicated constraint can never support a seventh edge
        rng = SplitMix64(57)
        s6 = slack_matrix(random_convex_polygon(rng, 6)).matrix
        rows = s6.tolist()
        rows.append([3 * x for x in s6.row(0)])  # proportional to row 0
        a = Matrix(rows)
        assert rank(a) == 3
        poly = section_polygon(a)
        assert poly.k == 6
        left, right, info = factor_seven_by_n(a)
        assert left.cols == 6
        assert left @ right == a
        assert info["method"] == "section"

    def test_zero_columns_pass_through(self, h7_slack):
        cols = h7_slack.columns()
        cols.insert(3, (Fraction(0),) * 7)
        a = Matrix.from_columns(cols)
        left, right, _ = factor_seven_by_n(a)
        assert left @ right == a
        assert right.column(3) == (Fraction(0),) * right.rows


class TestFactorLowRank:
    def test_zero_matrix(self):
        a = Matrix.zeros(4, 5)
        left, right, info = factor_low_rank(a)
        assert left.shape == (4, 0) and right.shape == (0, 5)
        assert left @ right == a
        assert info["inner_dim"] == 0

    def test_outer_product(self):
        rng = SplitMix64(55)
        a = random_rank_one(rng, 5, 6)
        left, right, info = factor_low_rank(a)
        assert left.cols == 1
        assert left @ right == a
        assert info["inner_dim"] == 1

    def test_rank_two_random(self):
        rng = SplitMix64(56)
        for _ in range(20):
            a = random_rank_two(rng, rng.below(5) + 2, rng.below(5) + 2)
            left, right, _ = factor_low_rank(a)
            assert left.cols == 2
            assert left @ right == a
            assert left.is_nonnegative() and right.is_nonnegative()

    def test_rank_two_with_zero_rows_and_columns(self):
        base = Matrix([[1, 2, 0, 3], [2, 1, 0, 0], [0, 0, 0, 0], [3, 3, 0, 3]])
        assert rank(base) == 2
        left, right, _ = factor_low_rank(base)
        assert left @ right == base

    def test_rank_three_rejected(self, h7_slack):
        with pytest.raises(RankError):
            factor_low_rank(h7_slack)


# -- the Fraction section code the integer cone replaced, verbatim ----------

SIZE = 7
_ZERO = Fraction(0)


# The library's column normalization, used by the oracles below and by no
# library path; the integer cores never build normalized columns.
def normalize_columns(a: Matrix):
    """Scale every nonzero column to unit coordinate sum.

    Returns (normalized, column_sums, zero_columns): zero columns are
    recorded by index and dropped; ``column_sums`` lists the positive sum
    of each kept column in order, so the original matrix is the
    normalized one times diag(column_sums) with zero columns reinserted.
    """
    kept, sums, zero_cols = [], [], []
    for j in range(a.cols):
        col = a.column(j)
        total = sum(col, Fraction(0))
        if all(x == 0 for x in col):
            zero_cols.append(j)
        else:
            sums.append(total)
            kept.append(tuple(x / total for x in col))
    normalized = Matrix.from_columns(kept) if kept else Matrix.zeros(a.rows, 0)
    return normalized, tuple(sums), tuple(zero_cols)


def _angular_ccw_sort(points):
    """Sort chart points counterclockwise around their centroid using only
    exact sign tests; starts just above the positive-x direction."""
    n = len(points)
    cx = sum((p[0] for p in points), Fraction(0)) / n
    cy = sum((p[1] for p in points), Fraction(0)) / n

    def half(p):
        dx, dy = p[0] - cx, p[1] - cy
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def compare(p, q):
        hp, hq = half(p), half(q)
        if hp != hq:
            return -1 if hp < hq else 1
        px, py = p[0] - cx, p[1] - cy
        qx, qy = q[0] - cx, q[1] - cy
        cross = px * qy - py * qx
        if cross == 0:
            raise InternalError("two section vertices share a centroid ray")
        return -1 if cross > 0 else 1

    return sorted(points, key=functools.cmp_to_key(compare))


def _proportional_groups(a: Matrix):
    """Indices of the first row of each proportionality class, in order.

    Zero rows carry no constraint (their coordinate vanishes identically
    on the column space) and are excluded.
    """
    reps = []
    for i in range(a.rows):
        row = a.row(i)
        if all(x == 0 for x in row):
            continue
        duplicate = False
        for r in reps:
            ref = a.row(r)
            p = next(k for k, x in enumerate(ref) if x != 0)
            lam = row[p] / ref[p]
            if all(row[k] == lam * ref[k] for k in range(a.cols)):
                duplicate = True
                break
        if not duplicate:
            reps.append(i)
    return reps


def _extreme_points(lines):
    """Chart points where two constraint lines meet and every constraint
    u*x + v*y + o >= 0 holds, in discovery order and without repeats.

    Each line (u, v, o) is scaled to integers by the positive lcm of its
    denominators: the same line and the same half-plane.  Lines s and t
    meet at (xn, yn) / det by Cramer's rule; with det made positive, a
    constraint holds there iff o*det + u*xn + v*yn >= 0, so only the kept
    points are built as Fractions.
    """
    lines = [clear_denominators(line)[0] for line in lines]
    candidates = []
    for s in range(len(lines)):
        u1, v1, o1 = lines[s]
        for t in range(s + 1, len(lines)):
            u2, v2, o2 = lines[t]
            det = u1 * v2 - u2 * v1
            if det == 0:
                continue
            xn = o2 * v1 - o1 * v2
            yn = u2 * o1 - u1 * o2
            if det < 0:
                det, xn, yn = -det, -xn, -yn
            if all(o * det + u * xn + v * yn >= 0 for (u, v, o) in lines):
                point = (Fraction(xn, det), Fraction(yn, det))
                if point not in candidates:
                    candidates.append(point)
    return candidates


def _normalized_columns(a: Matrix):
    """Each nonzero column of a nonnegative matrix scaled to unit sum,
    in order, normalized only when it is read."""
    for col in zip(*a.data):
        total = sum(col, _ZERO)
        if total:
            yield tuple(x / total for x in col)


def oracle_section_polygon(a: Matrix) -> SectionPolygon:
    """section_polygon for a matrix that passed _check_seven_rows_rank3.

    The chart is the first normalized column, its first nonzero
    difference to a later one (u) and the first difference off the line
    through u (v); only the columns up to v are normalized.
    """
    columns = _normalized_columns(a)
    origin = next(columns)
    axis_u = None
    for col in columns:
        d = tuple(x - o for x, o in zip(col, origin))
        if any(x != 0 for x in d):
            axis_u = d
            break
    if axis_u is None:
        raise RankError("columns are all equal after normalization")
    pivot = next(k for k, x in enumerate(axis_u) if x != 0)
    # Columns before u lie on the origin and u itself on its own line, so
    # the search for v continues after u.
    axis_v = None
    for col in columns:
        d = tuple(x - o for x, o in zip(col, origin))
        lam = d[pivot] / axis_u[pivot]
        residual = tuple(x - lam * u for x, u in zip(d, axis_u))
        if any(x != 0 for x in residual):
            axis_v = d
            break
    if axis_v is None:
        raise RankError("normalized columns span only a line")

    # Constraint i: origin[i] + x*axis_u[i] + y*axis_v[i] >= 0.
    reps = _proportional_groups(a)
    candidates = _extreme_points([(axis_u[i], axis_v[i], origin[i]) for i in reps])

    if len(candidates) < 3:
        raise InternalError(
            f"section has only {len(candidates)} extreme points; "
            "expected a two-dimensional polygon"
        )
    base = candidates[0]
    d0 = None
    flat = True
    for p in candidates[1:]:
        d = (p[0] - base[0], p[1] - base[1])
        if d0 is None:
            d0 = d
        elif d0[0] * d[1] - d0[1] * d[0] != 0:
            flat = False
            break
    if flat:
        raise InternalError("section degenerates to a segment")

    ordered = _angular_ccw_sort(candidates)

    vertices = []
    columns = []
    for chart_point in ordered:
        ambient = tuple(
            o + chart_point[0] * u + chart_point[1] * v
            for o, u, v in zip(origin, axis_u, axis_v)
        )
        if any(x < 0 for x in ambient):
            raise InternalError("section vertex has a negative coordinate")
        if sum(ambient, Fraction(0)) != 1:
            raise InternalError("section vertex does not sum to one")
        tight = tuple(i for i, x in enumerate(ambient) if x == 0)
        vertices.append(SectionVertex(chart=chart_point, ambient=ambient, tight=tight))
        columns.append(ambient)

    if len(vertices) > SIZE:
        raise InternalError(
            f"section produced {len(vertices)} vertices; at most 7 are possible"
        )
    if len(vertices) == SIZE:
        for t, vert in enumerate(vertices):
            if len(vert.tight) != 2:
                raise InternalError(
                    f"vertex {t} of a 7-vertex section has {len(vert.tight)} "
                    "tight constraints; exactly 2 are possible"
                )

    return SectionPolygon(
        chart_origin=tuple(origin),
        chart_u=axis_u,
        chart_v=axis_v,
        vertices=tuple(vertices),
        vertex_matrix=Matrix.from_columns(columns),
    )



# -- the integer candidate loop against the Fraction loop it replaced -------


def fraction_extreme_points(lines):
    """The candidate loop of ``section_polygon`` as it was on Fraction
    lines (u, v, o), verbatim."""
    candidates = []
    for s in range(len(lines)):
        u1, v1, o1 = lines[s]
        for t in range(s + 1, len(lines)):
            u2, v2, o2 = lines[t]
            det = u1 * v2 - u2 * v1
            if det == 0:
                continue
            x = (-o1 * v2 + o2 * v1) / det
            y = (-u1 * o2 + u2 * o1) / det
            if all(o + x * u + y * v >= 0 for (u, v, o) in lines):
                point = (x, y)
                if point not in candidates:
                    candidates.append(point)
    return candidates


coordinates = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
)
positive = st.builds(Fraction, st.integers(1, 10**20), st.integers(1, 10**20))


@st.composite
def constraint_lines(draw):
    """2..8 lines u*x + v*y + o >= 0: free ones, ones through a shared
    point (so several meet at one candidate), and signed multiples of
    earlier ones (parallel, or the same line)."""
    x0, y0 = draw(coordinates), draw(coordinates)
    lines = []
    for _ in range(draw(st.integers(2, 8))):
        kind = draw(st.sampled_from(["free", "through", "multiple"]))
        u, v, o = draw(coordinates), draw(coordinates), draw(coordinates)
        if kind == "through":
            o = -(u * x0 + v * y0)
        elif kind == "multiple" and lines:
            lam = draw(positive) * draw(st.sampled_from([1, -1]))
            u, v, o = (lam * c for c in draw(st.sampled_from(lines)))
        lines.append((u, v, o))
    return lines


@settings(max_examples=400)
@given(constraint_lines())
def test_extreme_points_match_fraction_loop(lines):
    assert _extreme_points(lines) == fraction_extreme_points(lines)


@st.composite
def seven_row_sections(draw):
    """7 x k nonnegative rank-3 matrices whose section is a k-gon: the
    slack rows of a random k-gon plus redundant rows that are zero,
    positive multiples of a facet row, or positive combinations of two
    facet rows (of adjacent facets, such a line passes through a vertex)."""
    k = draw(st.integers(3, 7))
    slack = slack_matrix(random_convex_polygon(SplitMix64(draw(st.integers(0, 2**32))), k))
    facets = slack.matrix.data
    rows = list(facets)
    while len(rows) < 7:
        kind = draw(st.sampled_from(["zero", "multiple", "adjacent", "any-two"]))
        i = draw(st.integers(0, k - 1))
        j = (i + 1) % k if kind == "adjacent" else draw(st.integers(0, k - 1))
        lam, mu = draw(positive), draw(positive)
        if kind == "zero":
            row = (Fraction(0),) * k
        elif kind == "multiple":
            row = tuple(lam * x for x in facets[i])
        else:
            row = tuple(lam * x + mu * y for x, y in zip(facets[i], facets[j]))
        rows.insert(draw(st.integers(0, len(rows))), row)
    return Matrix(rows), k


@settings(max_examples=100)
@given(seven_row_sections())
def test_section_vertices_match_fraction_loop(case):
    a, k = case
    poly = section_polygon(a)
    lines = [
        (poly.chart_u[i], poly.chart_v[i], poly.chart_origin[i])
        for i in _proportional_groups(a)
    ]
    expected = _angular_ccw_sort(fraction_extreme_points(lines))
    assert [v.chart for v in poly.vertices] == expected
    assert poly.k == k


# -- the per-chunk integer kernel against the Fraction code it replaced -----


def _orient(p, q, r):
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _integer_points(points):
    """Chart points with every x cleared to one common denominator and
    every y to another.  Scaling x and y by positive numbers keeps the
    sign of every ``_orient``."""
    xs, _ = clear_denominators([p[0] for p in points])
    ys, _ = clear_denominators([p[1] for p in points])
    return list(zip(xs, ys))


def oracle_convex_coefficients(poly, point):
    """``convex_coefficients`` as it was on Fractions and ``solve``, verbatim."""
    target = tuple(Fraction(x) for x in point)
    if len(target) != len(poly.chart_origin):
        raise DimensionError("point dimension does not match the section")
    rhs = [x - o for x, o in zip(target, poly.chart_origin)]
    chart = solve(Matrix.from_columns([poly.chart_u, poly.chart_v]), rhs)
    if isinstance(chart, Inconsistency):
        raise OutsidePolygon("point does not lie in the section plane")
    px, py = chart

    verts = [v.chart for v in poly.vertices]
    k = len(verts)
    *cleared, q = _integer_points(verts + [(px, py)])
    for t in range(1, k - 1):
        support = (0, t, t + 1)
        a, b, c = (cleared[s] for s in support)
        if _orient(a, b, q) >= 0 and _orient(b, c, q) >= 0 and _orient(c, a, q) >= 0:
            system = Matrix(
                [
                    (Fraction(1), Fraction(1), Fraction(1)),
                    tuple(verts[s][0] for s in support),
                    tuple(verts[s][1] for s in support),
                ]
            )
            bary = solve(system, [Fraction(1), px, py])
            if isinstance(bary, Inconsistency):
                raise InternalError("barycentric system unsolvable in a fan triangle")
            if any(x < 0 for x in bary):
                raise InternalError("negative barycentric coordinate inside a triangle")
            coeffs = [Fraction(0)] * k
            for idx, lam in zip(support, bary):
                coeffs[idx] += lam
            # The other k - 3 coefficients are zero and add exactly 0.
            reproduced = tuple(
                sum((coeffs[s] * poly.vertices[s].ambient[i] for s in support), Fraction(0))
                for i in range(len(target))
            )
            if reproduced != target:
                raise InternalError("convex combination does not reproduce the point")
            return tuple(coeffs)
    raise OutsidePolygon(f"point ({', '.join(map(str, target))}) lies outside the section polygon")


def vertex_weights(rays, columns):
    """``_convex_weights`` of the cleared ``columns`` over bare integer
    rays, as weights of the vertices x / sum(x): row x times sum(x)."""
    return section._convex_weights(rays, columns, section._diagonal_lines([sum(x) for x in rays]))


def outcome(fn, *args):
    """The result of ``fn``, or the class and message of what it raised."""
    try:
        return fn(*args)
    except (ExactNMFError, ValueError) as exc:
        return type(exc), str(exc)


def compact(result):
    """A factor core's (left, right, info) from the Fraction code as the
    library now emits it: for the ``section`` method, every vertex whose
    weight row is zero dropped from both factors and ``inner_dim`` counting
    the rest; then each left column primitive by ``primitive_columns``.
    An exception's (class, message) passes unchanged."""
    if len(result) == 2:
        return result
    left, right, info = result
    if info["method"] == "section":
        used = [t for t, row in enumerate(right.data) if any(row)]
        left = Matrix._raw(tuple(tuple(row[t] for t in used) for row in left.data),
                           left.rows, len(used))
        right = Matrix._raw(tuple(right.data[t] for t in used), len(used), right.cols)
        info = dict(info, inner_dim=len(used))
    return (*primitive_columns(left, right), info)


@st.composite
def chart_points(draw):
    """Distinct chart points; now and then three more whose deviations
    from the centroid are l*d, m*d and -(l+m)*d for the deviation d of one
    point, which keeps the centroid and puts two points on one ray."""
    points = draw(st.lists(st.tuples(coordinates, coordinates), min_size=1, max_size=7,
                           unique=True))
    if draw(st.booleans()):
        n = len(points)
        cx, cy = (sum(axis, _ZERO) / n for axis in zip(*points))
        px, py = draw(st.sampled_from(points))
        lam, mu = draw(positive), draw(positive)
        for t in (lam, mu, -(lam + mu)):
            points.append((cx + t * (px - cx), cy + t * (py - cy)))
        assume(len(set(points)) == len(points))
    return points


def integer_ccw_sort(points):
    """The points in ``section._ccw_order``, each axis cleared over its own
    denominator."""
    xs, _ = clear_denominators([p[0] for p in points])
    ys, _ = clear_denominators([p[1] for p in points])
    return [points[t] for t in section._ccw_order(xs, ys)]


@settings(max_examples=300)
@given(chart_points())
def test_angular_sort_matches_fraction_code(points):
    """The integer order against the Fraction sort it replaced: the same
    order, or the same InternalError for a shared centroid ray."""
    assert outcome(integer_ccw_sort, points) == outcome(_angular_ccw_sort, points)


def combine(weights, points):
    return tuple(sum((w * p[i] for w, p in zip(weights, points)), Fraction(0))
                 for i in range(len(points[0])))


@st.composite
def section_points(draw):
    """A section polygon and points aimed at the corners of the fan:
    vertices, edge midpoints, points on the diagonals (0, t) that two fan
    triangles share, interior points with large denominators, the zero
    point, off-plane points (each coordinate moved in turn, or the sum
    scaled) and in-plane points outside the polygon."""
    a, _ = draw(seven_row_sections())
    poly = section_polygon(a)
    verts = [v.ambient for v in poly.vertices]
    k = len(verts)
    points = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(
            ["vertex", "midpoint", "diagonal", "interior", "zero", "off-plane",
             "scaled", "outside"]
        ))
        t = draw(st.integers(0, k - 1))
        if kind == "vertex":
            point = verts[t]
        elif kind == "midpoint":
            point = combine((Fraction(1, 2), Fraction(1, 2)), (verts[t], verts[(t + 1) % k]))
        elif kind == "diagonal":
            mu = draw(st.sampled_from([Fraction(1, 2), Fraction(1, 3)]) | positive.map(
                lambda x: x / (1 + x)))
            point = combine((mu, 1 - mu), (verts[0], verts[max(t, 1)]))
        elif kind == "interior":
            w = [draw(positive) for _ in range(3)]
            picks = [draw(st.integers(0, k - 1)) for _ in range(3)]
            point = combine([x / sum(w) for x in w], [verts[i] for i in picks])
        elif kind == "zero":
            point = (Fraction(0),) * 7
        elif kind == "off-plane":
            # One point per coordinate moved, so that every row's
            # consistency test is the one that must fail.
            base = combine((Fraction(1, 2), Fraction(1, 2)), (verts[t], verts[(t + 2) % k]))
            eps = draw(coordinates.filter(lambda x: x != 0))
            points.extend(
                tuple(x + eps if j == i else x for j, x in enumerate(base)) for i in range(7)
            )
            continue
        elif kind == "scaled":
            point = tuple(2 * x for x in verts[t])
        else:
            lam = draw(positive)
            point = combine((1 + lam, -lam), (verts[t], verts[(t + 1 + draw(st.integers(0, k - 2))) % k]))
        points.append(point)
    return poly, points


@settings(max_examples=150)
@given(section_points())
def test_convex_coefficients_match_oracle(case):
    poly, points = case
    for point in points:
        assert outcome(convex_coefficients, poly, point) == outcome(
            oracle_convex_coefficients, poly, point
        )


@settings(max_examples=100)
@given(seven_row_sections(), st.integers(0, 6), st.integers(1, 6), coordinates, st.data())
def test_unit_sum_points_off_the_plane_match_oracle(case, i, shift, eps, data):
    """Points of unit sum that leave the column space, eps moved from one
    coordinate of an in-plane point to another: only the rank test can
    refuse them, with the oracle's class and message."""
    a, _ = case
    poly = section_polygon(a)
    base = data.draw(st.sampled_from([v.ambient for v in poly.vertices]))
    j = (i + shift) % 7
    point = tuple(x + eps * ((t == i) - (t == j)) for t, x in enumerate(base))
    assert outcome(convex_coefficients, poly, point) == outcome(
        oracle_convex_coefficients, poly, point
    )


def oracle_weights(poly, columns):
    """The right factor ``factor_seven_by_n`` built from the oracle: each
    nonzero column normalized, its coefficients times its sum."""
    out = []
    for col in columns:
        total = sum(col, Fraction(0))
        if total == 0:
            out.append((Fraction(0),) * poly.k)
            continue
        coeffs = oracle_convex_coefficients(poly, tuple(x / total for x in col))
        out.append(tuple(c * total for c in coeffs))
    return Matrix.from_columns(out)


@settings(max_examples=150)
@given(section_points(), st.data())
def test_chunk_weights_match_oracle(case, data):
    """The per-chunk path of ``factor_seven_by_n``: columns are points times
    weights with large denominators, positive or, where the point's sum is
    negative, negative (the path reads columns of positive sum); a zero
    column gets zero weights, and any other failure is the oracle's first
    one.  Only points of the column space are columns here, as on the
    path: the kernel reads three rows and leaves the plane test to
    ``convex_coefficients``."""
    poly, points = case
    points = [p for p in points
              if rank(Matrix.from_columns([*poly.vertex_matrix.columns(), p])) == 3]
    assume(points)
    columns = []
    for point in points:
        weight = data.draw(positive) * (-1 if sum(point) < 0 else 1)
        columns.append(tuple(x * weight for x in point))
    a = Matrix.from_columns(columns)
    rays = [x for x, _ in map(clear_denominators, zip(*poly.vertex_matrix.data))]
    weights = outcome(vertex_weights, rays, cleared(a))
    assert weights == outcome(oracle_weights, poly, columns)
    assert weights == outcome(_convex_weights, poly, a)


# -- the integer cone against the Fraction section code ----------------------


@st.composite
def section_inputs(draw):
    """``seven_row_sections`` with columns in the column space added in
    front: zero columns, positive multiples of a column, and positive
    combinations of the first two (on the line through them), so the
    chart search skips columns on its way to u and to v."""
    a, k = draw(seven_row_sections())
    columns = a.columns()
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["zero", "multiple", "on-line"]))
        if kind == "zero":
            col = (Fraction(0),) * 7
        elif kind == "multiple":
            lam = draw(positive)
            col = tuple(lam * x for x in columns[draw(st.integers(0, len(columns) - 1))])
        else:
            lam, mu = draw(positive), draw(positive)
            col = tuple(lam * x + mu * y for x, y in zip(columns[0], columns[1]))
        columns.insert(draw(st.integers(0, 2)), col)
    return Matrix.from_columns(columns), k


@settings(max_examples=200)
@given(section_inputs())
def test_section_polygon_matches_fraction_code(case):
    """Chart, vertex order, ambient points, tight sets and vertex matrix."""
    a, k = case
    poly = section_polygon(a)
    assert poly == oracle_section_polygon(a)
    assert poly.k == k


# -- the integer segment against the Fraction rank <= 2 code -----------------


def oracle_factor_low_rank(a: Matrix):
    """``factor_low_rank`` as it was on Fractions, verbatim."""
    check_nonnegative(a)
    r = rank(a)
    if r > 2:
        raise RankError(f"low-rank factorization requires rank <= 2, got {r}")

    if r == 0:
        return Matrix.zeros(a.rows, 0), Matrix.zeros(0, a.cols), {"method": "zero", "inner_dim": 0}

    if r == 1:
        pivot_col = next(
            j for j in range(a.cols) if any(x != 0 for x in a.column(j))
        )
        base = a.column(pivot_col)
        p = next(i for i, x in enumerate(base) if x != 0)
        ratios = []
        for j in range(a.cols):
            lam = a.data[p][j] / base[p]
            if any(a.data[i][j] != lam * base[i] for i in range(a.rows)):
                raise InternalError("rank-1 matrix has a non-proportional column")
            ratios.append(lam)
        left = Matrix.from_columns([base])
        right = Matrix([ratios])
        return left, right, {"method": "single-column", "inner_dim": 1}

    normalized, sums, zero_cols = normalize_columns(a)
    origin = normalized.column(0)
    direction = None
    for j in range(1, normalized.cols):
        d = tuple(x - o for x, o in zip(normalized.column(j), origin))
        if any(x != 0 for x in d):
            direction = d
            break
    if direction is None:
        raise InternalError("rank-2 matrix has a single normalized column")
    p = next(i for i, x in enumerate(direction) if x != 0)

    positions = []
    for j in range(normalized.cols):
        col = normalized.column(j)
        t = (col[p] - origin[p]) / direction[p]
        if any(col[i] != origin[i] + t * direction[i] for i in range(a.rows)):
            raise InternalError("normalized columns of a rank-2 matrix left their line")
        positions.append(t)
    t_min, t_max = min(positions), max(positions)
    j_min = positions.index(t_min)
    j_max = positions.index(t_max)
    end_low = normalized.column(j_min)
    end_high = normalized.column(j_max)
    span = t_max - t_min

    weight_cols = []
    for j, t in enumerate(positions):
        mu = (t_max - t) / span
        weight_cols.append((mu * sums[j], (1 - mu) * sums[j]))
    right = insert_zero_lines(Matrix.from_columns(weight_cols), (), zero_cols, 2, a.cols)
    left = Matrix.from_columns([end_low, end_high])
    if not is_product(left, right, a):
        raise InternalError("rank-2 factorization failed to reproduce the input")
    return left, right, {"method": "segment", "inner_dim": 2}


multipliers = st.one_of(
    st.builds(Fraction, st.integers(1, 6), st.integers(1, 4)),
    st.builds(Fraction, st.integers(10**15, 10**20), st.integers(10**15, 10**20)),
)


@st.composite
def low_rank_inputs(draw):
    """Nonnegative matrices whose columns are multiples of 1, 2 or 3
    generator columns (rank 1, 2 or 3 when the generators are independent)
    or positive combinations of them: zero columns, generators repeated at
    both ends of the segment (ties for the first minimum and maximum),
    repeats of earlier columns, and now and then a negative entry."""
    rows = draw(st.sampled_from(range(1, 8)))
    count = draw(st.sampled_from([1, 2, 2, 2, 3]))
    entry = st.builds(Fraction, st.sampled_from(range(10)), st.integers(1, 4))
    generators = [[draw(entry) for _ in range(rows)] for _ in range(count)]
    columns = []
    for _ in range(draw(st.sampled_from(range(1, 9)))):
        kind = draw(st.sampled_from(["zero", "end", "end", "end", "repeat", "mix", "mix"]))
        if kind == "zero":
            col = [Fraction(0)] * rows
        elif kind == "end":
            lam = draw(multipliers)
            col = [lam * x for x in generators[draw(st.integers(0, count - 1))]]
        elif kind == "repeat" and columns:
            lam = draw(multipliers)
            col = [lam * x for x in draw(st.sampled_from(columns))]
        else:
            weights = [draw(multipliers) for _ in generators]
            col = [sum(w * g[i] for w, g in zip(weights, generators)) for i in range(rows)]
        columns.insert(draw(st.integers(0, len(columns))), col)
    if draw(st.sampled_from([False] * 9 + [True])):
        j = draw(st.integers(0, len(columns) - 1))
        i = draw(st.integers(0, rows - 1))
        columns[j][i] = -draw(multipliers)
    return Matrix.from_columns(columns)


def capped_refusal(result):
    """The oracle's outcome as ``factor_low_rank`` words it now: it stops
    at the third pivot, so it refuses rank 3 as "at least 3"."""
    if result == (RankError, "low-rank factorization requires rank <= 2, got 3"):
        return RankError, "low-rank factorization requires rank <= 2, got rank at least 3"
    return result


@settings(max_examples=400)
@given(low_rank_inputs())
def test_factor_low_rank_matches_fraction_code(a):
    """Left, right and info, or the class and message of the exception."""
    assert outcome(factor_low_rank, a) == capped_refusal(compact(outcome(oracle_factor_low_rank, a)))


@settings(max_examples=200)
@given(low_rank_inputs(), st.sampled_from([1, 2]))
def test_factor_low_rank_guards_match_fraction_code(a, claimed):
    """With ``rank`` made to claim rank 1 or 2 whatever the input, the core
    still reads its rank and basis from the pivot columns, so the result is
    the old code's for the true rank (not checked on a nonnegative rank-3
    input, which the lie lets past the refusal)."""
    assume(any(x for row in a.data for x in row))
    assume(not a.is_nonnegative() or rank(Matrix(a.data)) <= 2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(section, "rank", lambda m, cap=None: claimed)
        assert outcome(factor_low_rank, a) == compact(outcome(oracle_factor_low_rank, a))


# -- the integer section core against the chart code it replaced ------------
#
# ``_cleared_columns``, ``_section_polygon``, ``_FanKernel``,
# ``_convex_weights`` and ``_factor_seven_by_n`` as they were, verbatim but
# for the cyclic core: ``_factor_seven_by_n`` calls the Fraction one of
# ``test_cyclic``.  ``_angular_ccw_sort`` here is the Fraction sort above,
# which the integer sort they used matched.


def _cleared_columns(a: Matrix):
    """(c, sum(c)) for each nonzero column of a nonnegative matrix, in
    order, with c the column cleared to integers: its normalized form is
    c / sum(c), and sum(c) == 0 only for a zero column."""
    for col in zip(*a.data):
        c, _ = clear_denominators(col)
        s = sum(c)
        if s:
            yield c, s


def _section_polygon(a: Matrix):
    """(section_polygon(a), rays) for a matrix that passed
    _check_seven_rows_rank3: vertex t is rays[t] = (x, S) with integer x,
    ambient coordinates x / S and S = sum(x).

    The chart is the first normalized column, its first nonzero
    difference to a later one (u) and the first difference off the line
    through u (v).  Those three columns, cleared to integers, are the
    columns of an integer basis B of the column space, so the section is
    the cone {B h >= 0} cut at unit sum: constraints i and j meet on the
    ray h = b_i x b_j (rows of B), which is a vertex when B h has one
    sign.  Zero and proportional rows have a zero cross product.
    """
    columns = _cleared_columns(a)
    c0, s0 = next(columns)
    found = next(((c, s) for c, s in columns if any(x * s0 != y * s for x, y in zip(c, c0))), None)
    if found is None:
        raise RankError("columns are all equal after normalization")
    cu, su = found
    # Columns before u lie on the origin and u itself on its own line, so
    # the search for v continues after u.  c lies in the span of c0 and cu
    # iff its 3x3 minors on the rows (p, q, i) vanish, for a nonzero 2x2
    # minor of (c0, cu) on the rows p, q.
    p, q, m = _positive_minor(c0, cu)
    forms = [(c0[q] * y - x * cu[q], x * cu[p] - c0[p] * y) for x, y in zip(c0, cu)]
    found = next((
        (c, s) for c, s in columns
        if any(c[p] * f + c[q] * g + ci * m for ci, (f, g) in zip(c, forms))
    ), None)
    if found is None:
        raise RankError("normalized columns span only a line")
    cv, sv = found

    # A ray h meets the unit-sum plane at x / S, x = B h, S = sum(x), with
    # chart coordinates (h[1] * su, h[2] * sv) / S; a vertex where more
    # than two constraints are tight is found once per pair of them.
    rows = list(zip(c0, cu, cv))
    by_chart = {}
    for i, (a0, a1, a2) in enumerate(rows):
        for b0, b1, b2 in rows[i + 1 :]:
            h = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
            if not any(h):
                continue
            x = [h[0] * r0 + h[1] * r1 + h[2] * r2 for r0, r1, r2 in rows]
            if min(x) < 0:
                if max(x) > 0:
                    continue
                h, x = [-t for t in h], [-t for t in x]
            total = sum(x)
            chart = (Fraction(h[1] * su, total), Fraction(h[2] * sv, total))
            if chart not in by_chart:
                by_chart[chart] = (x, total)

    if not 3 <= len(by_chart) <= SIZE:
        raise InternalError(f"section produced {len(by_chart)} vertices; 3 to 7 are possible")
    charts = _angular_ccw_sort(list(by_chart))
    rays = [by_chart[chart] for chart in charts]
    vertices = tuple(
        SectionVertex(chart, tuple(Fraction(t, total) for t in x),
                      tuple(k for k, t in enumerate(x) if not t))
        for chart, (x, total) in zip(charts, rays)
    )
    if len(vertices) == SIZE:
        for t, vert in enumerate(vertices):
            if len(vert.tight) != 2:
                raise InternalError(
                    f"vertex {t} of a 7-vertex section has {len(vert.tight)} "
                    "tight constraints; exactly 2 are possible"
                )

    poly = SectionPolygon(
        chart_origin=tuple(Fraction(x, s0) for x in c0),
        chart_u=tuple(Fraction(y * s0 - x * su, su * s0) for x, y in zip(c0, cu)),
        chart_v=tuple(Fraction(y * s0 - x * sv, sv * s0) for x, y in zip(c0, cv)),
        vertices=vertices,
        vertex_matrix=Matrix._raw(
            tuple(zip(*(vert.ambient for vert in vertices))), len(c0), len(vertices)
        ),
    )
    return poly, rays


class _FanKernel:
    """Convex coefficients over one section polygon, on Python ints.

    Everything that depends only on the polygon is cleared to integers
    once: the chart origin, ``u`` and ``v`` (each over its own
    denominator) with their first nonzero 2x2 minor, the vertex chart
    coordinates (each axis over its own denominator, which keeps the
    sign of every orientation), the fan triangles (0, t, t + 1) as three
    integer edge forms and a determinant each.  A point ``c / s``
    (integer ``c``, positive ``s``) then costs Cramer's rule and a
    consistency test on every row and the orientation tests of the fan in
    order, all on ints; only nonzero weights become Fractions.  Weights
    are not multiplied back: the caller's one product check covers them.
    """

    def __init__(self, poly: SectionPolygon):
        self.k = poly.k
        self.origin, self.d_origin = clear_denominators(poly.chart_origin)
        self.u, d_u = clear_denominators(poly.chart_u)
        self.v, d_v = clear_denominators(poly.chart_v)
        self.minor = _, _, minor = _positive_minor(self.u, self.v)

        # A point with chart coordinates (x, y) = (xn * d_u, yn * d_v) / e,
        # e = minor * s * d_origin, sits at (xn * kx, yn * ky) / e once each
        # axis is scaled by its vertex denominator; e times its orientation
        # against the edge p -> q is alpha*xn + beta*yn + gamma*s.
        xs, d_x = clear_denominators([vert.chart[0] for vert in poly.vertices])
        ys, d_y = clear_denominators([vert.chart[1] for vert in poly.vertices])
        kx, ky, ks = d_u * d_x, d_v * d_y, minor * self.d_origin

        def edge(p, q):
            px, py, qx, qy = xs[p], ys[p], xs[q], ys[q]
            return ((py - qy) * kx, (qx - px) * ky, (px * qy - py * qx) * ks)

        # Per fan triangle: its support, the edge forms a->b, b->c, c->a,
        # and minor * d_origin * det(a, b, c): the barycentric coordinate
        # of a is form(b->c) / (s * that), and so on round the triangle.
        self.fan = []
        for t in range(1, self.k - 1):
            a, b, c = 0, t, t + 1
            det = (xs[b] - xs[a]) * (ys[c] - ys[a]) - (ys[b] - ys[a]) * (xs[c] - xs[a])
            self.fan.append(((a, b, c), edge(a, b), edge(b, c), edge(c, a), det * ks))

    def weights(self, c, s: int, d: int) -> Tuple[Fraction, ...]:
        """Convex coefficients of the point ``c / s``, each times ``s / d``;
        ``s`` must be positive, as it fixes the sign of every orientation.

        Raises OutsidePolygon when the point is off the section plane or
        outside the polygon, InternalError when a located coefficient is
        negative.
        """
        u, v, d_origin = self.u, self.v, self.d_origin
        i1, i2, minor = self.minor
        r = [ci * d_origin - s * oi for ci, oi in zip(c, self.origin)]
        xn = r[i1] * v[i2] - r[i2] * v[i1]
        yn = u[i1] * r[i2] - u[i2] * r[i1]
        if any(xn * ui + yn * vi != ri * minor for ui, vi, ri in zip(u, v, r)):
            raise OutsidePolygon("point does not lie in the section plane")

        for support, ab, bc, ca, scale in self.fan:
            l_ab = ab[0] * xn + ab[1] * yn + ab[2] * s
            if l_ab < 0:
                continue
            l_bc = bc[0] * xn + bc[1] * yn + bc[2] * s
            if l_bc < 0:
                continue
            l_ca = ca[0] * xn + ca[1] * yn + ca[2] * s
            if l_ca < 0:
                continue
            if scale == 0:
                raise InternalError("barycentric system unsolvable in a fan triangle")
            nums = (l_bc, l_ca, l_ab)
            if scale < 0:
                nums, scale = tuple(-x for x in nums), -scale
            if any(x < 0 for x in nums):
                raise InternalError("negative barycentric coordinate inside a triangle")
            out = [_ZERO] * self.k
            den = scale * d
            for idx, x in zip(support, nums):
                if x:
                    out[idx] = Fraction(x, den)
            return tuple(out)
        point = ", ".join(str(Fraction(ci, s)) for ci in c)
        raise OutsidePolygon(f"point ({point}) lies outside the section polygon")


def _convex_weights(poly: SectionPolygon, a: Matrix) -> Matrix:
    """The k x n right factor of a nonnegative ``a`` through its section:
    column j holds the convex coefficients of a's normalized column j
    times that column's sum, and a zero column gets zero weights."""
    # Column j is c / d with integer c; its normalized form is c / sum(c)
    # and sum(c) == 0 only for a zero column.
    kernel = _FanKernel(poly)
    zero_weights = (_ZERO,) * poly.k
    weight_cols = []
    for col in zip(*a.data):
        c, d = clear_denominators(col)
        s = sum(c)
        weight_cols.append(kernel.weights(c, s, d) if s else zero_weights)
    return Matrix._raw(tuple(zip(*weight_cols)), poly.k, a.cols)


def _factor_seven_by_n(a: Matrix):
    """``factor_seven_by_n`` for a matrix that passed
    _check_seven_rows_rank3, with no product check of its own.  The
    counterclockwise vertices t and t + 1 of a 7-vertex section share one
    tight row, their edge, which the labeling puts at t: the labeling
    ``detect_cyclic_labeling`` finds on the vertex matrix."""
    poly, rays = _section_polygon(a)
    right = _convex_weights(poly, a)
    if poly.k <= 6:
        info = {"method": "section", "vertices": poly.k, "inner_dim": poly.k}
        return poly.vertex_matrix, right, info
    tight = [set(vert.tight) for vert in poly.vertices]
    edges = [tight[t] & tight[(t + 1) % SIZE] for t in range(SIZE)]
    labeling = CyclicLabeling(tuple(min(edge) for edge in edges), tuple(range(SIZE)))
    cert = fraction_factor_cyclic([x for x, _ in rays], [total for _, total in rays], labeling)
    info = {
        "method": "section+cyclic",
        "vertices": poly.k,
        "inner_dim": 6,
        "search_steps": cert.steps_taken,
        "mirrored": cert.used_reversal,
    }
    return cert.left, cert.right @ right, info


@st.composite
def chunk_inputs(draw):
    """``section_inputs`` (k = 3..7; zero, proportional and tangent rows)
    with columns aimed at the corners of the fan appended: vertices,
    points on a fan diagonal (0, t) or on an edge, interior points and
    zero columns, each times a positive weight.  Appended columns leave
    the chart, and so vertex 0 and the fan, as they were."""
    a, k = draw(section_inputs())
    verts = [v.ambient for v in _section_polygon(a)[0].vertices]
    columns = a.columns()
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["vertex", "diagonal", "edge", "interior", "zero"]))
        t = draw(st.integers(0, k - 1))
        mu = draw(st.sampled_from([Fraction(1, 2), Fraction(1, 3)]) | positive.map(
            lambda x: x / (1 + x)))
        if kind == "vertex":
            point = verts[t]
        elif kind == "diagonal":
            point = combine((mu, 1 - mu), (verts[0], verts[t]))
        elif kind == "edge":
            point = combine((mu, 1 - mu), (verts[t], verts[(t + 1) % k]))
        elif kind == "interior":
            w = [draw(positive) for _ in range(3)]
            picks = [draw(st.integers(0, k - 1)) for _ in range(3)]
            point = combine([x / sum(w) for x in w], [verts[i] for i in picks])
        else:
            point = (Fraction(0),) * 7
        weight = draw(positive)
        columns.append(tuple(weight * x for x in point))
    return Matrix.from_columns(columns), k


@settings(max_examples=150)
@given(chunk_inputs())
def test_section_rays_match_chart_code(case):
    """Ray order and values, tight sets and the public polygon."""
    a, k = case
    rays, _, _ = section._section_rays(a)
    poly, chart_rays = _section_polygon(a)
    assert [(x, sum(x)) for x in rays] == chart_rays and len(rays) == k
    assert [tuple(i for i, t in enumerate(x) if not t) for x in rays] == [
        v.tight for v in poly.vertices
    ]
    assert section_polygon(a) == poly


@settings(max_examples=150)
@given(chunk_inputs())
def test_chunk_factors_match_chart_code(case):
    """The chunk weights, and the core's left factor, right factor (through
    the cyclic right factor when k = 7) and info, made compact."""
    a, _ = case
    rays, _, _ = section._section_rays(a)
    assert vertex_weights(rays, cleared(a)) == _convex_weights(_section_polygon(a)[0], a)
    assert section._factor_seven_by_n(a) == compact(_factor_seven_by_n(a))


def oracle_section_basis(cleared):
    """The basis the section core searched for before it read its pivot
    columns, verbatim: the first column, its first later column off it (u)
    and the first later column off their line (v), cleared, with their sums."""
    # Column c / d normalizes to c / sum(c); sum(c) == 0 only for a zero column.
    columns = ((c, s) for c, s in ((c, sum(c)) for c, _ in cleared) if s)
    c0, s0 = next(columns)
    found = next(((c, s) for c, s in columns if any(x * s0 != y * s for x, y in zip(c, c0))), None)
    if found is None:
        raise RankError("columns are all equal after normalization")
    cu, su = found
    # Columns before u lie on the origin and u itself on its own line, so
    # the search for v continues after u.  c lies in the span of c0 and cu
    # iff its 3x3 minors on the rows (p, q, i) vanish, for a nonzero 2x2
    # minor of (c0, cu) on the rows p, q.
    p, q, m = _positive_minor(c0, cu)
    forms = [(c0[q] * y - x * cu[q], x * cu[p] - c0[p] * y) for x, y in zip(c0, cu)]
    found = next((
        (c, s) for c, s in columns
        if any(c[p] * f + c[q] * g + ci * m for ci, (f, g) in zip(c, forms))
    ), None)
    if found is None:
        raise RankError("normalized columns span only a line")
    cv, sv = found
    return (c0, s0), (cu, su), (cv, sv)


@settings(max_examples=150)
@given(chunk_inputs())
def test_pivot_basis_is_the_searched_basis(case):
    """On nonnegative rank-3 7 x n input the pivot columns are the columns
    the old search picked: zero, proportional and on-line columns first."""
    a, _ = case
    assert tuple(section._section_rays(Matrix(a.data))[2]) == oracle_section_basis(cleared(a))


def test_pivot_basis_on_sparse_random_chunks():
    """The same over random rank-3 7 x n matrices with zero columns and
    multiples of earlier columns put in front."""
    rng = SplitMix64(4242)
    for _ in range(120):
        columns = random_rank3_seven_by_n(rng, rng.below(6) + 3).columns()
        for _ in range(rng.below(4)):
            lam = Fraction(rng.below(5) + 1, rng.below(3) + 1)
            col = [lam * x for x in columns[rng.below(len(columns))]] if rng.below(2) else [0] * 7
            columns.insert(rng.below(3), col)
        a = Matrix.from_columns(columns)
        assert tuple(section._section_rays(a)[2]) == oracle_section_basis(cleared(a))


@st.composite
def signed_products(draw):
    """7-row products G @ H of rank <= 3 with small signed entries, G with
    zero, repeated and negated rows: a rank below 3, fewer than 3
    vertices, negative entries, and now and then a nonnegative product."""
    entry = st.integers(-2, 3)
    inner = draw(st.sampled_from([1, 2, 3, 3, 3]))
    g = []
    for _ in range(7):
        kind = draw(st.sampled_from(["free", "free", "zero", "repeat", "negated"]))
        if kind == "zero":
            row = [0] * inner
        elif kind in ("repeat", "negated") and g:
            row = [x * (1 if kind == "repeat" else -1) for x in draw(st.sampled_from(g))]
        else:
            row = [draw(entry) for _ in range(inner)]
        g.append(row)
    cols = draw(st.sampled_from([1, 2] + list(range(3, 10)) * 3))
    h = [[draw(entry) for _ in range(cols)] for _ in range(inner)]
    a = Matrix(g) @ Matrix(h)
    assume(any(sum(col) for col in zip(*a.data)))
    return a


def checked_chart_polygon(a: Matrix):
    """The chart code's polygon behind the library's input check."""
    _check_seven_rows_rank3(a)
    return _section_polygon(a)[0]


@settings(max_examples=300)
@given(signed_products())
def test_section_ray_errors_match_chart_code(a):
    """The polygon, or the class and message of the error, on signed input."""
    assert outcome(section_polygon, a) == outcome(checked_chart_polygon, a)
