"""Sectioning the standard simplex by a rank-3 column space.

For a nonnegative 7xn matrix of rank 3, the column space meets the
standard simplex in a polygon with at most 7 vertices.  Writing every
normalized column as a convex combination of those vertices factors the
matrix through them; a 7-vertex section carries the cyclic zero pattern
and factors further down to inner dimension 6.  Rank 0, 1 and 2 inputs
factor directly at their rank.

The convex coefficients come from one integer kernel per chunk
(``_FanKernel``): the chart, the fan triangles and the vertex matrix are
cleared to Python ints once per section, and each column is then located
and checked with integer Cramer, orientation and cross-multiplication
tests, with no ``solve`` and no Fraction until its nonzero weights.
``convex_coefficients`` is the same kernel on one point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

from .cyclic import factor_cyclic
from .errors import (
    DegenerateSection,
    DimensionError,
    InternalError,
    OutsidePolygon,
    RankError,
)
from .linalg import Matrix, clear_denominators, insert_zero_lines, is_product, rank
from .validation import check_nonnegative

SIZE = 7
_ZERO = Fraction(0)


@dataclass(frozen=True)
class SectionVertex:
    chart: Tuple[Fraction, Fraction]
    ambient: Tuple[Fraction, ...]
    tight: Tuple[int, ...]  # 0-based coordinates that vanish here


@dataclass(frozen=True)
class SectionPolygon:
    """Polygon cut out of the simplex by the column space, in an exact
    rational 2-D chart.  Vertices are counterclockwise in the chart."""

    chart_origin: Tuple[Fraction, ...]
    chart_u: Tuple[Fraction, ...]
    chart_v: Tuple[Fraction, ...]
    vertices: Tuple[SectionVertex, ...]
    vertex_matrix: Matrix  # ambient vertex coordinates as columns, 7 x k

    @property
    def k(self) -> int:
        return len(self.vertices)


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


def _check_seven_rows_rank3(a: Matrix):
    if a.rows != SIZE:
        raise DimensionError(f"expected 7 rows, got {a.rows}")
    check_nonnegative(a)
    r = rank(a)
    if r != 3:
        raise RankError(f"sectioning requires rank 3, got {r}")


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


def section_polygon(a: Matrix) -> SectionPolygon:
    """Intersect the unit-sum nonnegative orthant slice with the column
    space of ``a`` (7 rows, nonnegative, rank 3).

    The polygon is computed in an exact affine chart of the intersection
    plane: every pair of distinct constraint lines is intersected, points
    satisfying all constraints are kept and ordered counterclockwise.
    Zero rows and proportional rows contribute no constraint line of
    their own, so a 7-vertex section always has 7 genuinely distinct
    constraints.
    """
    _check_seven_rows_rank3(a)
    return _section_polygon(a)


def _normalized_columns(a: Matrix):
    """Each nonzero column of a nonnegative matrix scaled to unit sum,
    in order, normalized only when it is read."""
    for col in zip(*a.data):
        total = sum(col, _ZERO)
        if total:
            yield tuple(x / total for x in col)


def _section_polygon(a: Matrix) -> SectionPolygon:
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
        raise DegenerateSection(
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
        raise DegenerateSection("section degenerates to a segment")

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


class _FanKernel:
    """Convex coefficients over one section polygon, on Python ints.

    Everything that depends only on the polygon is cleared to integers
    once: the chart origin, ``u`` and ``v`` (each over its own
    denominator) with their first nonzero 2x2 minor, the vertex chart
    coordinates (each axis over its own denominator, which keeps the
    sign of every orientation), the fan triangles (0, t, t + 1) as three
    integer edge forms and a determinant each, and the ambient vertex
    matrix over one denominator.  A point ``c / s`` (integer ``c``,
    positive ``s``) then costs Cramer's rule and a consistency test on
    every row, the orientation tests of the fan in order, and the
    reproduction test, all on ints; only nonzero weights become
    Fractions.
    """

    def __init__(self, poly: SectionPolygon):
        self.k = poly.k
        dim = len(poly.chart_origin)
        self.origin, self.d_origin = clear_denominators(poly.chart_origin)
        self.u, d_u = clear_denominators(poly.chart_u)
        self.v, d_v = clear_denominators(poly.chart_v)
        u, v = self.u, self.v
        minors = (
            (i1, i2, u[i1] * v[i2] - u[i2] * v[i1])
            for i1 in range(dim)
            for i2 in range(i1 + 1, dim)
        )
        i1, i2, minor = next((m for m in minors if m[2]), (0, 0, 0))
        if minor == 0:
            raise InternalError("section chart axes are parallel")
        if minor < 0:  # swapping the two rows makes the minor positive
            i1, i2, minor = i2, i1, -minor
        self.minor = (i1, i2, minor)

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

        ambient, d_ambient = clear_denominators(
            [x for row in poly.vertex_matrix.data for x in row]
        )
        self.ambient = [ambient[i * self.k : (i + 1) * self.k] for i in range(dim)]
        self.d_ambient = d_ambient

    def weights(self, c, s: int, d: int) -> Tuple[Fraction, ...]:
        """Convex coefficients of the point ``c / s``, each times ``s / d``;
        ``s`` must be positive, as it fixes the sign of every orientation.

        Raises OutsidePolygon when the point is off the section plane or
        outside the polygon, InternalError when a located coefficient is
        negative or the combination does not reproduce the point.
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
            # sum(nums * ambient) / (s * scale * d_ambient) == c / s
            bound = scale * self.d_ambient
            for row, ci in zip(self.ambient, c):
                if sum(x * row[idx] for x, idx in zip(nums, support)) != ci * bound:
                    raise InternalError("convex combination does not reproduce the point")
            out = [_ZERO] * self.k
            den = scale * d
            for idx, x in zip(support, nums):
                if x:
                    out[idx] = Fraction(x, den)
            return tuple(out)
        target = tuple(Fraction(ci, s) for ci in c)
        raise OutsidePolygon(f"point {target} lies outside the section polygon")


def convex_coefficients(poly: SectionPolygon, point: Sequence) -> Tuple[Fraction, ...]:
    """Express an ambient point of the polygon as an exact convex
    combination of its vertices (at most three nonzero coefficients,
    located by fan triangulation from vertex 0)."""
    target = tuple(Fraction(x) for x in point)
    if len(target) != len(poly.chart_origin):
        raise DimensionError("point dimension does not match the section")
    c, d = clear_denominators(target)
    return _FanKernel(poly).weights(c, d, d)


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


def factor_seven_by_n(a: Matrix):
    """Factor a nonnegative rank-3 matrix with 7 rows through its section
    polygon.  Returns (left, right, info) with left and right nonnegative,
    left @ right == a exactly, and inner dimension at most 6.

    A section with k <= 6 vertices yields inner dimension k directly; a
    7-vertex section is factored once more through its cyclic pattern.
    """
    _check_seven_rows_rank3(a)
    poly = _section_polygon(a)
    right = _convex_weights(poly, a)

    if poly.k <= 6:
        left = poly.vertex_matrix
        info = {"method": "section", "vertices": poly.k, "inner_dim": poly.k}
    else:
        cert = factor_cyclic(poly.vertex_matrix)
        left = cert.left
        right = cert.right @ right
        info = {
            "method": "section+cyclic",
            "vertices": poly.k,
            "inner_dim": 6,
            "search_steps": cert.steps_taken,
            "mirrored": cert.used_reversal,
        }
    if not is_product(left, right, a):
        raise InternalError("seven-row factorization failed to reproduce the input")
    return left, right, info


def factor_low_rank(a: Matrix):
    """Exact nonnegative factorization of a rank <= 2 nonnegative matrix
    with inner dimension equal to its rank."""
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

