"""Polygons, slack matrices, and lifted descriptions."""

import math
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exactnmf.driver import VerificationReport, inner_dimension_bound
from exactnmf.errors import (
    CollinearVertices,
    DuplicateVertices,
    ExactNMFError,
    InternalError,
    NotConvex,
)
from exactnmf.generate import random_convex_polygon
from exactnmf.linalg import Matrix, is_product, rank
from exactnmf import polygon
from exactnmf.polygon import (
    ExtendedFormulation,
    Facet,
    Point,
    Polygon,
    build_extension,
    polygon_from_points,
    slack_matrix,
    verify_extension,
)
from exactnmf.rng import SplitMix64
from exactnmf.validation import as_point
from test_linalg_kernel import oracle_rank

SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


class TestPolygonFromPoints:
    def test_square_facets(self):
        poly = polygon_from_points(SQUARE)
        assert set(poly.facets) == {
            (Fraction(0), Fraction(1), Fraction(0)),      # y >= 0
            (Fraction(-1), Fraction(0), Fraction(-1)),    # -x >= -1
            (Fraction(0), Fraction(-1), Fraction(-1)),    # -y >= -1
            (Fraction(1), Fraction(0), Fraction(0)),      # x >= 0
        }

    def test_h7_cross_products_positive(self, h7_polygon):
        assert h7_polygon.n == 7
        verts = h7_polygon.vertices
        for i in range(7):
            o, a, b = verts[i], verts[(i + 1) % 7], verts[(i + 2) % 7]
            cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
            assert cross > 0

    def test_clockwise_input_reversed(self):
        poly = polygon_from_points(list(reversed(SQUARE)))
        verts = poly.vertices
        for i in range(4):
            o, a, b = verts[i], verts[(i + 1) % 4], verts[(i + 2) % 4]
            assert (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0]) > 0

    def test_collinear_rejected(self):
        with pytest.raises(CollinearVertices):
            polygon_from_points([(0, 0), (1, 0), (2, 0), (0, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateVertices):
            polygon_from_points([(0, 0), (1, 0), (1, 0), (0, 1)])

    def test_nonconvex_rejected(self):
        with pytest.raises(NotConvex):
            polygon_from_points([(0, 0), (4, 0), (1, 1), (0, 4)])

    def test_star_walk_rejected(self):
        # pentagram order: every turn has the same sign but the walk wraps twice
        pts = [(0, 10), (6, -8), (-9, 3), (9, 3), (-6, -8)]
        with pytest.raises(NotConvex):
            polygon_from_points(pts)

    def test_vertex_on_another_facet_line_rejected(self):
        # every turn is a left turn, but vertex 3 lies on the line of facet 0:
        # the walk wraps around twice
        pts = [(0, -3), (-2, -1), (1, -3), (-3, -2), (3, -3)]
        with pytest.raises(NotConvex, match="the vertex walk winds 2 times"):
            polygon_from_points(pts)

    def test_rational_vertices(self):
        poly = polygon_from_points([("1/2", 0), ("3/2", "1/3"), (1, 2)])
        assert poly.n == 3


class TestSlackMatrix:
    def test_zero_pattern_square(self):
        poly = polygon_from_points(SQUARE)
        s = slack_matrix(poly).matrix
        for i in range(4):
            for t in range(4):
                expected_zero = t == i or t == (i + 1) % 4
                assert (s[i, t] == 0) == expected_zero

    def test_h7_rank_three(self, h7_slack):
        assert rank(h7_slack) == 3

    def test_square_rank_three(self):
        s = slack_matrix(polygon_from_points(SQUARE))
        assert s.rank == 3 and s.matrix.shape == (4, 4)

    def test_nonnegative_everywhere(self):
        rng = SplitMix64(71)
        for n in (3, 5, 9):
            s = slack_matrix(random_convex_polygon(rng, n)).matrix
            assert s.is_nonnegative()


class TestBuildExtension:
    def test_heptagon_six_inequalities(self, h7_polygon):
        ef = build_extension(h7_polygon)
        assert ef.k <= 6

    def test_square_trivial_branch(self):
        ef = build_extension(polygon_from_points(SQUARE))
        assert ef.k <= 4

    def test_fourteen_gon(self):
        rng = SplitMix64(72)
        poly = random_convex_polygon(rng, 14)
        ef = build_extension(poly)
        assert ef.k <= 12

    def test_verifies_for_random_ngons(self):
        rng = SplitMix64(73)
        for n in (3, 4, 6, 7, 8, 11, 13, 20):
            poly = random_convex_polygon(rng, n)
            ef = build_extension(poly)
            report = verify_extension(poly, ef)
            assert report.ok, (n, report.failures)
            if n >= 7:
                assert ef.k < n


class TestVerifyExtension:
    def test_all_checks_pass_on_h7(self, h7_polygon):
        ef = build_extension(h7_polygon)
        assert verify_extension(h7_polygon, ef).ok

    def test_negated_lift_entry_named(self, h7_polygon):
        """lifts is the right factor of the slack matrix's certificate: its
        negated entry (0, 3), the lift of vertex 3, and the product there."""
        ef = build_extension(h7_polygon)
        rows = ef.lifts.tolist()
        assert rows[0][3] == Fraction(1, 5) and not any(rows[0][:3])
        rows[0][3] = -rows[0][3]
        tampered = ExtendedFormulation(ef.k, ef.T, ef.C, ef.beta, Matrix(rows))
        assert verify_extension(h7_polygon, tampered).failures == [
            "right factor has negative entry -1/5 at (0, 3)",
            "product disagrees with input at (0, 3): 11/5 != 5",
        ]

    def test_inequality_count_check(self, h7_polygon):
        # claim k = n by padding with zero columns: the bound check fails for n >= 7
        ef = build_extension(h7_polygon)
        n = h7_polygon.n
        pad = n - ef.k
        t_cols = ef.T.columns() + [(Fraction(0),) * n] * pad
        lift_rows = ef.lifts.tolist() + [[Fraction(0)] * n] * pad
        padded = ExtendedFormulation(
            n,
            Matrix.from_columns(t_cols),
            ef.C,
            ef.beta,
            Matrix(lift_rows),
        )
        assert verify_extension(h7_polygon, padded).failures == [
            "inner dimension 7 exceeds the bound 6"
        ]

    def test_broken_reconstruction_named(self, h7_polygon):
        ef = build_extension(h7_polygon)
        rows = ef.T.tolist()
        rows[0][0] = rows[0][0] + 1
        tampered = ExtendedFormulation(ef.k, Matrix(rows), ef.C, ef.beta, ef.lifts)
        assert verify_extension(h7_polygon, tampered).failures == [
            "product disagrees with input at (0, 3): 26/5 != 5"
        ]

    def test_changed_facet_row_named(self, h7_polygon):
        """T @ lifts is still the slack matrix, so only the inequality whose
        C row no longer is its facet's is named."""
        ef = build_extension(h7_polygon)
        assert h7_polygon.facets[2] == (-1, 0, -5)
        rows = ef.C.tolist()
        rows[2][0] -= 1
        tampered = ExtendedFormulation(ef.k, ef.T, Matrix(rows), ef.beta, ef.lifts)
        assert verify_extension(h7_polygon, tampered).failures == [
            "inequality 2, (-2, 0, -5), is not facet 2 of the polygon"
        ]


# -- oracles: the Fraction code that polygon_from_points and verify_extension
# ran before slack values came from one integer table, and the Fraction
# turn and facet helpers polygon_from_points used before it worked on
# cleared integers, kept verbatim -----------------------------------------


def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _facet_through(p: Point, q: Point) -> Facet:
    """Inward inequality through the directed edge p -> q of a
    counterclockwise polygon, scaled to coprime integer coefficients."""
    cx = -(q[1] - p[1])
    cy = q[0] - p[0]
    scale = Fraction(math.lcm(cx.denominator, cy.denominator))
    cx, cy = cx * scale, cy * scale
    g = math.gcd(int(cx), int(cy))
    if g > 1:
        cx, cy = cx / g, cy / g
    beta = cx * p[0] + cy * p[1]
    return (cx, cy, beta)


def oracle_polygon_from_points(points):
    vertices = [as_point(p) for p in points]
    n = len(vertices)
    if n < 3:
        raise NotConvex(f"a polygon needs at least 3 vertices, got {n}")
    for i in range(n):
        for j in range(i + 1, n):
            if vertices[i] == vertices[j]:
                raise DuplicateVertices("vertices {} and {} coincide at ({}, {})".format(i, j, *vertices[i]))

    turns = []
    for i in range(n):
        turn = _cross(vertices[i], vertices[(i + 1) % n], vertices[(i + 2) % n])
        if turn == 0:
            raise CollinearVertices(
                f"vertices {i}, {(i + 1) % n}, {(i + 2) % n} are collinear"
            )
        turns.append(turn)
    if all(t < 0 for t in turns):
        vertices = [vertices[0]] + vertices[:0:-1]
    elif not all(t > 0 for t in turns):
        raise NotConvex("vertex walk changes turning direction")

    facets = tuple(
        _facet_through(vertices[i], vertices[(i + 1) % n]) for i in range(n)
    )
    poly = Polygon(tuple(vertices), facets)
    for i in range(n):
        for t in range(n):
            value = poly.facet_value(i, vertices[t])
            incident = t == i or t == (i + 1) % n
            if incident and value != 0:
                raise InternalError(f"vertex {t} misses its own facet {i}")
            if not incident and value <= 0:
                raise NotConvex(
                    f"vertex {t} does not satisfy facet {i} strictly; "
                    "the walk is not a simple convex boundary"
                )
    return poly


def oracle_slack(poly):
    n = poly.n
    return Matrix(
        [[poly.facet_value(i, poly.vertices[t]) for t in range(n)] for i in range(n)]
    )


def oracle_verify_extension(poly, ef):
    report = VerificationReport()
    n = poly.n
    slack = oracle_slack(poly)

    if (
        ef.T.shape != (n, ef.k)
        or ef.lifts.shape != (ef.k, n)
        or ef.C.shape != (n, 2)
        or len(ef.beta) != n
    ):
        report.failures.append(
            f"shape mismatch: T is {ef.T.shape}, lifts is {ef.lifts.shape}, "
            f"C is {ef.C.shape}, |beta| is {len(ef.beta)}; expected ({n}, {ef.k}), "
            f"({ef.k}, {n}), ({n}, 2) and {n}"
        )
        return report

    if is_product(ef.T, ef.lifts, slack):
        product = slack
    else:
        product = ef.T @ ef.lifts
        for i in range(n):
            for t in range(n):
                if product.data[i][t] != slack.data[i][t]:
                    report.failures.append(
                        f"slack reconstruction fails at facet {i}, vertex {t}: "
                        f"{product.data[i][t]} != {slack.data[i][t]}"
                    )
                    break
            else:
                continue
            break

    for t in range(n):
        lift = ef.lifts.column(t)
        negative = next(((r, y) for r, y in enumerate(lift) if y < 0), None)
        if negative is not None:
            report.failures.append(
                f"lift of vertex {t} has negative coordinate {negative[0]} "
                f"(value {negative[1]})"
            )
            continue
        px, py = poly.vertices[t]
        for i in range(n):
            cx, cy = ef.C.data[i]
            slack_value = cx * px + cy * py - ef.beta[i]
            lifted = product.data[i][t]
            if slack_value != lifted:
                report.failures.append(
                    f"equality {i} fails at vertex {t}: "
                    f"{slack_value} != {lifted}"
                )
                break

    hit = ef.T.first_negative_entry()
    if hit is not None:
        (i, j), x = hit
        report.failures.append(f"mixing matrix has negative entry {x} at ({i}, {j})")

    bound = inner_dimension_bound(n, n)
    if ef.k > bound:
        report.failures.append(
            f"{ef.k} inequalities exceed the bound ceil(6n/7) = {bound}"
        )
    return report


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ExactNMFError as exc:
        return type(exc), str(exc)


big_rationals = st.builds(
    Fraction,
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=1, max_value=2**70),
)


@st.composite
def vertex_walks(draw):
    """Vertices of a random convex polygon under a random nonsingular
    rational affine map (large denominators, either orientation), walked in
    order or with a stride, which gives self-wrapping star walks."""
    n = draw(st.integers(min_value=3, max_value=12))
    poly = random_convex_polygon(SplitMix64(draw(st.integers(0, 2**32))), n)
    a, b, c, d, e, f = (draw(big_rationals) for _ in range(6))
    assume(a * d != b * c)
    points = [(a * x + b * y + e, c * x + d * y + f) for x, y in poly.vertices]
    stride = draw(st.sampled_from([s for s in range(1, n) if gcd(s, n) == 1]))
    return [points[(i * stride) % n] for i in range(n)]


WINDING = "the vertex walk winds {} times; a simple convex boundary winds once"


@settings(max_examples=150)
@given(vertex_walks())
def test_slack_table_matches_fraction_code(points):
    """The oracle's verdict, except that a self-wrapping walk, which the
    oracle's slack table refuses at its first vertex beyond a facet, gets
    the winding message."""
    poly = _outcome(polygon_from_points, points)
    expected = _outcome(oracle_polygon_from_points, points)
    if not isinstance(expected, Polygon) and "does not satisfy facet" in expected[1]:
        assert expected[0] is poly[0] is NotConvex
        assert re.fullmatch(WINDING.format(r"\d+"), poly[1])
    else:
        assert poly == expected
    if isinstance(poly, Polygon):
        assert slack_matrix(poly).matrix == oracle_slack(poly)


def test_singular_map_is_refused_as_collinear():
    """A singular affine map (c = d = 0) puts every vertex on one line, so
    the walk is refused as collinear, as the oracle refuses it."""
    poly = random_convex_polygon(SplitMix64(5), 6)
    points = [(3 * x + 2 * y + 1, Fraction(7)) for x, y in poly.vertices]
    expected = (CollinearVertices, "vertices 0, 1, 2 are collinear")
    assert _outcome(polygon_from_points, points) == expected
    assert _outcome(oracle_polygon_from_points, points)[0] is CollinearVertices


@st.composite
def strided_walks(draw):
    """(walk, stride): the vertices of a random convex n-gon, n = 3..15,
    under a random rational affine map, walked with a stride s coprime to
    n that winds min(s, n - s) <= 3 times."""
    n = draw(st.integers(min_value=3, max_value=15))
    poly = random_convex_polygon(SplitMix64(draw(st.integers(0, 2**32))), n)
    a, b, c, d, e, f = (draw(big_rationals) for _ in range(6))
    assume(a * d != b * c)
    points = [(a * x + b * y + e, c * x + d * y + f) for x, y in poly.vertices]
    stride = draw(st.sampled_from([s for s in range(1, n)
                                   if gcd(s, n) == 1 and min(s, n - s) <= 3]))
    return [points[(i * stride) % n] for i in range(n)], stride


@settings(max_examples=200)
@given(strided_walks())
def test_winding_test_matches_the_slack_table(walk):
    """A strided walk is refused exactly when the oracle's slack table
    refuses it, and the message counts its windings: min(s, n - s)."""
    points, stride = walk
    n = len(points)
    winds = min(stride, n - stride)
    outcome = _outcome(polygon_from_points, points)
    expected = _outcome(oracle_polygon_from_points, points)
    if winds == 1:
        assert isinstance(expected, Polygon) and outcome == expected
    else:
        assert expected[0] is NotConvex
        assert outcome == (NotConvex, WINDING.format(winds))


def parabola_walk(n):
    """A valid n-gon: (i, i^2) for i < n - 1, closed by a point high above."""
    return [(i, i * i) for i in range(n - 1)] + [(n // 2, 10**7)]


def test_large_polygon_is_built_without_its_slack_matrix(h7_polygon):
    """``polygon_from_points`` does linear work: on a valid 1,000-gon it
    keeps no slack matrix.  The first read of ``.slack`` builds and keeps it."""
    poly = polygon_from_points(parabola_walk(1000))
    assert poly.n == 1000 and "slack" not in poly.__dict__
    fresh = polygon_from_points(h7_polygon.vertices)
    assert "slack" not in fresh.__dict__
    assert fresh.slack.shape == (7, 7) and fresh.__dict__["slack"] is fresh.slack


def _facet_failure(i, row):
    return f"inequality {i}, ({', '.join(map(str, row))}), is not facet {i} of the polygon"


def _tampered(poly, ef, rng):
    """(formulation, its exact failures) for formulations that break one
    condition: a facet row scaled by 2 with its beta, a changed beta, a
    negated lift entry, two facets swapped, a facet row scaled without its
    beta, a T row scaled with its facet row (a valid description, but not a
    certificate of the slack matrix), a negated T entry, and k + 1."""
    n, k, slack = poly.n, ef.k, poly.slack.data
    i = rng.below(n)
    c_rows, beta = [list(row) for row in ef.C.data], list(ef.beta)
    scaled_c = [row[:] for row in c_rows]
    scaled_c[i] = [2 * x for x in scaled_c[i]]
    scaled_beta = beta[:]
    scaled_beta[i] *= 2
    shifted_beta = beta[:]
    shifted_beta[i] += Fraction(1, 3)
    j = (i + 1) % n
    swapped_c = [row[:] for row in c_rows]
    swapped_c[i], swapped_c[j] = swapped_c[j], swapped_c[i]
    swapped_beta = beta[:]
    swapped_beta[i], swapped_beta[j] = swapped_beta[j], swapped_beta[i]
    # The product changes in the negated entry's column of lifts (row of T)
    # at the first row (column) whose T (lifts) entry meets it.
    lifts = ef.lifts.tolist()
    r, t = next((r, t) for r, row in enumerate(lifts) for t, x in enumerate(row) if x)
    y = lifts[r][t]
    lifts[r][t] = -y
    f = next(f for f in range(n) if ef.T.data[f][r])
    lift_value = slack[f][t] - 2 * ef.T.data[f][r] * y
    doubled_t = ef.T.tolist()
    doubled_t[i] = [2 * x for x in doubled_t[i]]
    v = next(v for v in range(n) if slack[i][v])
    negated_t = ef.T.tolist()
    g, c = next((g, c) for g, row in enumerate(negated_t) for c, x in enumerate(row) if x)
    x = negated_t[g][c]
    negated_t[g][c] = -x
    u = next(u for u in range(n) if ef.lifts.data[c][u])
    t_value = slack[g][u] - 2 * x * ef.lifts.data[c][u]
    return [
        (ExtendedFormulation(k, ef.T, Matrix(scaled_c), tuple(scaled_beta), ef.lifts),
         [_facet_failure(i, scaled_c[i] + [scaled_beta[i]])]),
        (ExtendedFormulation(k, ef.T, ef.C, tuple(shifted_beta), ef.lifts),
         [_facet_failure(i, c_rows[i] + [shifted_beta[i]])]),
        (ExtendedFormulation(k, ef.T, ef.C, ef.beta, Matrix(lifts)),
         [f"right factor has negative entry {-y} at ({r}, {t})",
          f"product disagrees with input at ({f}, {t}): {lift_value} != {slack[f][t]}"]),
        (ExtendedFormulation(k, ef.T, Matrix(swapped_c), tuple(swapped_beta), ef.lifts),
         [_facet_failure(h, swapped_c[h] + [swapped_beta[h]]) for h in sorted((i, j))]),
        (ExtendedFormulation(k, ef.T, Matrix(scaled_c), ef.beta, ef.lifts),
         [_facet_failure(i, scaled_c[i] + [beta[i]])]),
        (ExtendedFormulation(k, Matrix(doubled_t), Matrix(scaled_c), tuple(scaled_beta), ef.lifts),
         [f"product disagrees with input at ({i}, {v}): {2 * slack[i][v]} != {slack[i][v]}",
          _facet_failure(i, scaled_c[i] + [scaled_beta[i]])]),
        (ExtendedFormulation(k, Matrix(negated_t), ef.C, ef.beta, ef.lifts),
         [f"left factor has negative entry {-x} at ({g}, {c})",
          f"product disagrees with input at ({g}, {u}): {t_value} != {slack[g][u]}"]),
        (ExtendedFormulation(k + 1, ef.T, ef.C, ef.beta, ef.lifts),
         [f"shape mismatch: T is ({n}, {k}), lifts is ({k}, {n}), C is ({n}, 2), |beta| is "
          f"{n}; expected ({n}, {k + 1}), ({k + 1}, {n}), ({n}, 2) and {n}"]),
    ]


def test_verify_extension_matches_fraction_code(h7_polygon):
    """On every valid and tampered formulation the verdict is the old
    Fraction code's, and the failures are the ones each tampering makes."""
    rng = SplitMix64(74)
    polygons = [h7_polygon] + [random_convex_polygon(rng, n) for n in (3, 4, 5, 7, 9, 12)]
    for poly in polygons:
        ef = build_extension(poly)
        assert verify_extension(poly, ef).ok and oracle_verify_extension(poly, ef).ok
        for candidate, expected in _tampered(poly, ef, rng):
            report = verify_extension(poly, candidate)
            assert report.failures == expected
            assert report.ok == oracle_verify_extension(poly, candidate).ok


# -- the rank verify_extension does not compute ------------------------------


@pytest.mark.parametrize("seed", [1, 7919])
def test_slack_rank_is_three_on_generated_polygons(seed):
    """The property that lets ``verify_extension`` skip the rank: every
    generated polygon, n = 3..50, has a slack matrix of rank 3, by the
    library's elimination and by the Fraction oracle's."""
    rng = SplitMix64(seed)
    for n in range(3, 51):
        poly = random_convex_polygon(rng, n)
        assert slack_matrix(poly).rank == 3
        assert oracle_rank(poly.slack) == 3


def test_verify_extension_computes_no_rank(h7_polygon, monkeypatch):
    ef = build_extension(h7_polygon)

    def no_rank(m):
        raise AssertionError("rank called")

    monkeypatch.setattr(polygon, "rank", no_rank)
    assert verify_extension(h7_polygon, ef).ok
    with pytest.raises(AssertionError, match="rank called"):
        build_extension(h7_polygon)


# -- polygons built on cleared integers --------------------------------------

QUADRANT_STEPS = 1 << 16


def _old_circle_point(u):
    quadrant, k = divmod(u, QUADRANT_STEPS)
    t = Fraction(k, QUADRANT_STEPS)
    den = 1 + t * t
    x, y = (1 - t * t) / den, 2 * t / den
    if quadrant == 0:
        return (x, y)
    if quadrant == 1:
        return (-y, x)
    if quadrant == 2:
        return (-x, -y)
    return (y, -x)


def oracle_random_convex_polygon(rng, n):
    """The Fraction generator ``random_convex_polygon`` replaced, verbatim."""
    if n < 3:
        raise ValueError("a polygon needs at least 3 vertices")
    params: set = set()
    while len(params) < n:
        params.add(rng.below(4 * QUADRANT_STEPS))
    radius = 1 + Fraction(rng.below(256), 256)
    center = (
        Fraction(rng.below(513) - 256, 64),
        Fraction(rng.below(513) - 256, 64),
    )
    points = []
    for u in sorted(params):
        x, y = _old_circle_point(u)
        points.append((center[0] + radius * x, center[1] + radius * y))
    return polygon_from_points(points)


@pytest.mark.parametrize("n", [3, 7, 50])
def test_generator_matches_fraction_code(n):
    """Seeds 0..199 give the old generator's polygons and leave the stream
    where it left it; the first ten, built by the Fraction oracle from the
    same vertices, give the same polygon too."""
    for seed in range(200):
        rng, old_rng = SplitMix64(seed), SplitMix64(seed)
        poly = random_convex_polygon(rng, n)
        assert poly == oracle_random_convex_polygon(old_rng, n)
        assert rng.next_u64() == old_rng.next_u64()
        if seed < 10:
            assert poly == oracle_polygon_from_points(poly.vertices)


ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__")


def count_fraction_arithmetic(monkeypatch):
    """Wrap Fraction's arithmetic and comparisons; returns the list of the
    names called."""
    calls = []
    for name in ARITHMETIC:
        real = getattr(Fraction, name)

        def counted(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(Fraction, name, counted)
    return calls


def test_no_fraction_arithmetic(monkeypatch):
    """A 50-gon is built, and 4,001 points whose last two coincide are
    refused, without one Fraction sum, product, quotient or comparison."""
    vertices = random_convex_polygon(SplitMix64(7919), 50).vertices
    parabola = [(Fraction(i, 7), Fraction(i * i, 49)) for i in range(4000)]
    parabola.append(parabola[-1])
    calls = count_fraction_arithmetic(monkeypatch)
    poly = polygon_from_points(vertices)
    with pytest.raises(DuplicateVertices) as raised:
        polygon_from_points(parabola)
    assert calls == []
    monkeypatch.undo()
    assert poly == oracle_polygon_from_points(vertices)
    assert str(raised.value).startswith("vertices 3999 and 4000 coincide at (3999/7, ")


@st.composite
def walks_with_copies(draw):
    """Distinct points, at least two of them repeated, shuffled; each copy
    spelled as a Fraction or as its "p/q" string."""
    points = draw(st.lists(st.tuples(big_rationals, big_rationals), min_size=3, max_size=9,
                           unique=True))
    counts = draw(st.lists(st.integers(1, 4), min_size=len(points), max_size=len(points)))
    counts[0], counts[1] = max(counts[0], 2), max(counts[1], 2)
    walk = [p if draw(st.booleans()) else tuple(map(str, p))
            for p, c in zip(points, counts) for _ in range(c)]
    return draw(st.permutations(walk))


@settings(max_examples=200)
@given(walks_with_copies())
def test_duplicate_pair_is_the_pairwise_scans(points):
    """With several groups of coincident points, ``DuplicateVertices`` names
    the pair the pairwise scan names: the first vertex with a later copy,
    and its first later copy."""
    outcome = _outcome(polygon_from_points, points)
    assert outcome[0] is DuplicateVertices
    assert outcome == _outcome(oracle_polygon_from_points, points)
