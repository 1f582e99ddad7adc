"""Sectioning the standard simplex by a rank-3 column space.

For a nonnegative 7xn matrix of rank 3, the column space meets the
standard simplex in a polygon with at most 7 vertices.  Writing every
normalized column as a convex combination of those vertices factors the
matrix through them; a 7-vertex section carries the cyclic zero pattern
and factors further down to inner dimension 6.  Rank 0, 1 and 2 inputs
factor directly at their rank.

The vertices come from an integer cone: the chart's three columns,
cleared to integers, are a basis B of the column space, and each vertex
is an extreme ray ``B (b_i x b_j)`` of {B h >= 0}, for rows b_i of B; only
the at most 7 vertices become Fractions.  Rank 2 is the same on a line:
columns are placed on their segment and weighted against its two ends by
integer 2x2 determinants.

The convex coefficients come from one integer kernel per chunk
(``_FanKernel``): the chart and the fan triangles are cleared to Python
ints once per section, and each column is then located with integer
Cramer and orientation tests, with no ``solve`` and no Fraction until its
nonzero weights.  ``convex_coefficients`` is the same kernel on one
point, and checks that its weights reproduce the point.

``factor_seven_by_n`` and ``factor_low_rank`` check input and product
for direct callers; ``nn_factor`` calls their cores, which trust its rank
and nonnegativity and leave the product to its one closing check.  A
7-vertex section hands the cyclic core its integer vertex rays and the
relabeling its tight sets fix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

from .cyclic import CyclicLabeling, _factor_cyclic
from .errors import (
    DegenerateSection,
    DimensionError,
    InternalError,
    OutsidePolygon,
    RankError,
)
from .linalg import Matrix, clear_denominators, is_product, rank
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


def _angular_ccw_sort(points):
    """Sort chart points counterclockwise around their centroid using only
    exact sign tests; starts just above the positive-x direction.

    Each axis is cleared over its own denominator: a positive scale per
    axis keeps every half-plane and cross-product sign, and so does
    measuring from n times the centroid, so the tests run on ints."""
    n = len(points)
    xs, _ = clear_denominators([p[0] for p in points])
    ys, _ = clear_denominators([p[1] for p in points])
    sx, sy = sum(xs), sum(ys)
    offset = {p: (n * x - sx, n * y - sy) for p, x, y in zip(points, xs, ys)}

    def half(dx, dy):
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def compare(p, q):
        (px, py), (qx, qy) = offset[p], offset[q]
        hp, hq = half(px, py), half(qx, qy)
        if hp != hq:
            return -1 if hp < hq else 1
        cross = px * qy - py * qx
        if cross == 0:
            raise InternalError("two section vertices share a centroid ray")
        return -1 if cross > 0 else 1

    return sorted(points, key=functools.cmp_to_key(compare))


def section_polygon(a: Matrix) -> SectionPolygon:
    """Intersect the unit-sum nonnegative orthant slice with the column
    space of ``a`` (7 rows, nonnegative, rank 3), vertices counterclockwise
    in an exact affine chart of the plane.  Zero and proportional rows add
    no constraint line of their own, so a 7-vertex section always has 7
    distinct constraints."""
    _check_seven_rows_rank3(a)
    return _section_polygon(a)[0]


def _cleared_columns(a: Matrix):
    """(c, sum(c)) for each nonzero column of a nonnegative matrix, in
    order, with c the column cleared to integers: its normalized form is
    c / sum(c), and sum(c) == 0 only for a zero column."""
    for col in zip(*a.data):
        c, _ = clear_denominators(col)
        s = sum(c)
        if s:
            yield c, s


def _positive_minor(u, v):
    """(i1, i2, m): the first nonzero 2x2 minor m = u[i1]*v[i2] - u[i2]*v[i1]
    of two columns, its rows swapped where that makes it positive."""
    for i1 in range(len(u)):
        for i2 in range(i1 + 1, len(u)):
            m = u[i1] * v[i2] - u[i2] * v[i1]
            if m:
                return (i1, i2, m) if m > 0 else (i2, i1, -m)
    raise InternalError("section chart axes are parallel")


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

    if len(by_chart) < 3:
        raise DegenerateSection(
            f"section has only {len(by_chart)} extreme points; "
            "expected a two-dimensional polygon"
        )
    if len(by_chart) > SIZE:
        raise InternalError(
            f"section produced {len(by_chart)} vertices; at most 7 are possible"
        )
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
    weights = _FanKernel(poly).weights(c, d, d)
    used = [(w, vert.ambient) for w, vert in zip(weights, poly.vertices) if w]
    if tuple(sum((w * x[i] for w, x in used), _ZERO) for i in range(len(c))) != target:
        raise InternalError("convex combination does not reproduce the point")
    return weights


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
    left, right, info = _factor_seven_by_n(a)
    if not is_product(left, right, a):
        raise InternalError("seven-row factorization failed to reproduce the input")
    return left, right, info


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
    cert = _factor_cyclic([x for x, _ in rays], [total for _, total in rays], labeling)
    info = {
        "method": "section+cyclic",
        "vertices": poly.k,
        "inner_dim": 6,
        "search_steps": cert.steps_taken,
        "mirrored": cert.used_reversal,
    }
    return cert.left, cert.right @ right, info


def factor_low_rank(a: Matrix):
    """Exact nonnegative factorization of a rank <= 2 nonnegative matrix
    with inner dimension equal to its rank."""
    check_nonnegative(a)
    r = rank(a)
    if r > 2:
        raise RankError(f"low-rank factorization requires rank <= 2, got {r}")
    left, right, info = _factor_low_rank(a, r)
    if not is_product(left, right, a):
        raise InternalError(f"rank-{r} factorization failed to reproduce the input")
    return left, right, info


def _factor_low_rank(a: Matrix, r: int):
    """``factor_low_rank`` for a nonnegative ``a`` of rank ``r`` <= 2, with no
    product check; its proportionality and on-the-segment tests keep the
    divisions below defined if ``r`` is wrong."""
    if r == 0:
        return Matrix.zeros(a.rows, 0), Matrix.zeros(0, a.cols), {"method": "zero", "inner_dim": 0}

    cleared = [clear_denominators(col) for col in zip(*a.data)]
    if r == 1:
        pivot_col = next(j for j, (c, _) in enumerate(cleared) if any(c))
        base, cb = a.column(pivot_col), cleared[pivot_col][0]
        p = next(i for i, x in enumerate(cb) if x)
        for c, _ in cleared:
            if any(x * cb[p] != y * c[p] for x, y in zip(c, cb)):
                raise InternalError("rank-1 matrix has a non-proportional column")
        left = Matrix._raw(tuple((x,) for x in base), a.rows, 1)
        right = Matrix._raw((tuple(x / base[p] for x in a.data[p]),), 1, a.cols)
        return left, right, {"method": "single-column", "inner_dim": 1}

    # Column j is c / d_j with integer c, and positions on the segment are
    # compared by cross-multiplication, so only the left factor's entries
    # and the nonzero weights become Fractions.
    sums = [sum(c) for c, _ in cleared]
    kept = [j for j, s in enumerate(sums) if s]
    c_o, s_o = cleared[kept[0]][0], sums[kept[0]]
    u = next((j for j in kept if any(x * s_o != y * sums[j] for x, y in zip(cleared[j][0], c_o))), None)
    if u is None:
        raise InternalError("rank-2 matrix has a single normalized column")
    c_u = cleared[u][0]
    p, q, minor = _positive_minor(c_o, c_u)

    # By Cramer on the rows p, q, minor * c = det(c, c_u) * c_o + det(c_o, c) * c_u
    # for every column c in the span; the normalized column then sits at
    # det(c_o, c) * s_u / (minor * sum(c)) on the line, and s_u / minor > 0.
    position = {}
    for j in kept:
        c = cleared[j][0]
        det_o = c_o[p] * c[q] - c_o[q] * c[p]
        det_u = c[p] * c_u[q] - c[q] * c_u[p]
        if any(minor * x != det_u * y + det_o * z for x, y, z in zip(c, c_o, c_u)):
            raise InternalError("normalized columns of a rank-2 matrix left their line")
        position[j] = det_o
    low = high = kept[0]  # the first minimum and the first maximum
    for j in kept:
        if position[j] * sums[low] < position[low] * sums[j]:
            low = j
        if position[j] * sums[high] > position[high] * sums[j]:
            high = j

    # Weights against the two ends, again by Cramer on the rows p, q.
    c_low, c_high = cleared[low][0], cleared[high][0]
    s_low, s_high = sums[low], sums[high]
    span = c_low[p] * c_high[q] - c_low[q] * c_high[p]
    w_low, w_high = [_ZERO] * a.cols, [_ZERO] * a.cols
    for j in kept:
        c, d = cleared[j]
        w_low[j] = Fraction((c[p] * c_high[q] - c[q] * c_high[p]) * s_low, span * d)
        w_high[j] = Fraction((c_low[p] * c[q] - c_low[q] * c[p]) * s_high, span * d)
    right = Matrix._raw((tuple(w_low), tuple(w_high)), 2, a.cols)
    left = Matrix._raw(
        tuple((Fraction(x, s_low), Fraction(y, s_high)) for x, y in zip(c_low, c_high)),
        a.rows,
        2,
    )
    return left, right, {"method": "segment", "inner_dim": 2}
