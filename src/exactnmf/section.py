"""Sectioning the standard simplex by a rank-3 column space.

For a nonnegative 7xn matrix of rank 3, the column space meets the
standard simplex in a polygon with at most 7 vertices.  Writing every
normalized column as a convex combination of those vertices factors the
matrix through them; a 7-vertex section carries the cyclic zero pattern
and factors further down to inner dimension 6.  Rank 0, 1 and 2 inputs
factor directly at their rank.

The section is an integer cone: each vertex is an extreme ray x of the
cone of nonnegative vectors in the column space, at x / sum(x).  The
rays are ordered counterclockwise by sign tests on ints, each column is
located in the fan of cones (0, t, t + 1) over them by integer 3x3
determinants, and only nonzero weights and output entries become
Fractions.  Rank 2 is the same on a line: columns are placed on their
segment and weighted against its two ends by integer 2x2 determinants.
Every kernel reads the columns ``linalg.cleared_columns`` keeps on the
matrix, which the rank that chose the kernel already cleared.  Every
core's left columns are primitive integer vectors (a ray x leaves as
x // gcd(x)), its right rows take the inverse scale, and a vertex that
no column weighs leaves both factors.

``section_polygon`` and ``convex_coefficients`` show the section in an
exact 2-D chart, and only they build one.  ``factor_seven_by_n`` and
``factor_low_rank`` check input and product for direct callers;
``nn_factor`` calls their cores, which trust its rank and nonnegativity
and leave the product to its one closing check.  A 7-vertex section hands
the cyclic core its integer vertex rays and the relabeling its tight sets
fix, and gets its right factor back as integer rows for the fan pass.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import Sequence, Tuple

from .canonical import _cross3 as _cross
from .cyclic import CyclicLabeling, _factor_cyclic
from .errors import DegenerateSection, DimensionError, InternalError, OutsidePolygon, RankError
from .linalg import Matrix, clear_denominators, cleared_columns, format_value, is_product, rank
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


def _check_seven_rows_rank3(a: Matrix):
    if a.rows != SIZE:
        raise DimensionError(f"expected 7 rows, got {a.rows}")
    check_nonnegative(a)
    r = rank(a)
    if r != 3:
        raise RankError(f"sectioning requires rank 3, got {r}")


def _ccw_order(xs, ys):
    """Indices of the points (xs[t], ys[t]) counterclockwise around their
    centroid, starting just above the positive-x direction, by exact sign
    tests on ints.  A positive scale per axis keeps every half-plane and
    cross-product sign, and so does measuring from n times the centroid,
    so each axis may be cleared over its own denominator."""
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    offset = [(n * x - sx, n * y - sy) for x, y in zip(xs, ys)]

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

    return sorted(range(n), key=functools.cmp_to_key(compare))


def section_polygon(a: Matrix) -> SectionPolygon:
    """Intersect the unit-sum nonnegative orthant slice with the column
    space of ``a`` (7 rows, nonnegative, rank 3), vertices counterclockwise
    in an exact affine chart of the plane.  Zero and proportional rows add
    no constraint line of their own, so a 7-vertex section always has 7
    distinct constraints.  The chart is c0 / s0 + X u + Y v for the
    basis columns, u = cu / su - c0 / s0 and v = cv / sv - c0 / s0, so
    the ray B h sits at (X, Y) = (h[1] * su, h[2] * sv) / sum(B h)."""
    _check_seven_rows_rank3(a)
    rays, hs, ((c0, s0), (cu, su), (cv, sv)) = _section_rays(cleared_columns(a))
    data = tuple(zip(*(tuple(Fraction(t, s) for t in x) for x, s in rays)))
    vertex_matrix = Matrix._raw(data, SIZE, len(rays))
    vertices = tuple(
        SectionVertex((Fraction(h[1] * su, s), Fraction(h[2] * sv, s)), ambient,
                      tuple(i for i, t in enumerate(x) if not t))
        for (x, s), h, ambient in zip(rays, hs, zip(*vertex_matrix.data))
    )
    return SectionPolygon(
        chart_origin=tuple(Fraction(x, s0) for x in c0),
        chart_u=tuple(Fraction(y * s0 - x * su, su * s0) for x, y in zip(c0, cu)),
        chart_v=tuple(Fraction(y * s0 - x * sv, sv * s0) for x, y in zip(c0, cv)),
        vertices=vertices,
        vertex_matrix=vertex_matrix,
    )


def _positive_minor(u, v):
    """(i1, i2, m): the first nonzero 2x2 minor m = u[i1]*v[i2] - u[i2]*v[i1]
    of two columns, its rows swapped where that makes it positive."""
    for i1 in range(len(u)):
        for i2 in range(i1 + 1, len(u)):
            m = u[i1] * v[i2] - u[i2] * v[i1]
            if m:
                return (i1, i2, m) if m > 0 else (i2, i1, -m)
    raise InternalError("section chart axes are parallel")


def _section_rays(cleared):
    """(rays, hs, basis) for a matrix that passed _check_seven_rows_rank3,
    given by its columns cleared, (c, d) with column == c / d:
    vertex t is rays[t] = (x, S) with integer x, ambient coordinates x / S
    and S = sum(x), counterclockwise in the chart of ``section_polygon``,
    and x = B hs[t] for B with the columns of basis = ((c0, s0), (cu, su),
    (cv, sv)): the first column, its first later column off it (u) and
    the first later column off their line (v), cleared, with their sums.

    The section is the cone {B h >= 0} cut at unit sum: rows i and j are
    tight on the ray h = b_i x b_j (rows of B), a vertex when B h has one
    sign.  Zero and proportional rows have a zero cross product.
    """
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

    # A vertex where more than two rows are tight is met once per pair of
    # them, on parallel h.
    rows = list(zip(c0, cu, cv))
    rays, hs = [], []
    for i, b in enumerate(rows):
        for other in rows[i + 1 :]:
            h = _cross(b, other)
            if not any(h):
                continue
            x = [h[0] * r0 + h[1] * r1 + h[2] * r2 for r0, r1, r2 in rows]
            if min(x) < 0:
                if max(x) > 0:
                    continue
                h, x = [-t for t in h], [-t for t in x]
            if all(any(_cross(h, g)) for g in hs):
                rays.append((x, sum(x)))
                hs.append(h)

    if len(rays) < 3:
        raise DegenerateSection(f"section has only {len(rays)} extreme points; "
                                "expected a two-dimensional polygon")
    if len(rays) > SIZE:
        raise InternalError(f"section produced {len(rays)} vertices; at most 7 are possible")
    # Chart coordinates (h[1] * su, h[2] * sv) / S, times the lcm of the S.
    big = lcm(*(s for _, s in rays))
    order = _ccw_order(*zip(*(
        (h[1] * su * (big // s), h[2] * sv * (big // s)) for h, (_, s) in zip(hs, rays)
    )))
    rays, hs = [rays[t] for t in order], [hs[t] for t in order]
    for t, (x, _) in enumerate(rays if len(rays) == SIZE else ()):
        if x.count(0) != 2:
            raise InternalError(f"vertex {t} of a 7-vertex section has {x.count(0)} "
                                "tight constraints; exactly 2 are possible")
    return rays, hs, ((c0, s0), (cu, su), (cv, sv))


def _fan(rays):
    """locate(c, s) over counterclockwise vertex rays (x, S): the first fan
    cone (0, t, t + 1) that holds the integer column c of positive sum s,
    as (support, nums, det), det > 0 and nums >= 0 with det * c the sum of
    nums[i] times ray support[i]; vertex i weighs nums * S / (det * s).

    On three rows where the rays w are independent, c's cone coordinates
    times cone t's determinant d_t are det(c, w_t, w_t+1), det(w_0, c,
    w_t+1) and det(w_0, w_t, c): c dotted with cross products of rays,
    the third of cone t + 1 being minus the second of cone t.  All d_t of
    a counterclockwise fan have one sign.  Raises OutsidePolygon when c's
    other rows do not follow from those three, or c / s is outside.
    """
    w = [x for x, _ in rays]
    for rows in combinations(range(len(w[0])), 3):
        v = [tuple(x[i] for i in rows) for x in w]
        det = sum(map(mul, v[0], _cross(v[1], v[2])))
        if det:
            break
    sign = 1 if det > 0 else -1
    spokes = [tuple(sign * y for y in _cross(v[0], vt)) for vt in v]
    fan = []
    for t in range(1, len(w) - 1):
        rim = tuple(sign * y for y in _cross(v[t], v[t + 1]))
        fan.append(((0, t, t + 1), rim, spokes[t + 1], sum(map(mul, v[0], rim))))
    if any(d <= 0 for *_, d in fan):
        raise InternalError("section vertices are not in counterclockwise order")

    # Cramer's rule on cone 1: d_1 * c = a * w_0 + b * w_1 + g * w_2.
    (_, rim1, spoke2, d1), first = fan[0], spokes[1]
    p, q, r = rows
    normals = [
        (i, tuple(w[0][i] * x - w[1][i] * y + w[2][i] * z for x, y, z in zip(rim1, spoke2, first)))
        for i in range(len(w[0])) if i not in rows
    ]

    def locate(c, s):
        x, y, z = c[p], c[q], c[r]
        if any(d1 * c[i] != x * n0 + y * n1 + z * n2 for i, (n0, n1, n2) in normals):
            raise OutsidePolygon("point does not lie in the section plane")
        g = x * first[0] + y * first[1] + z * first[2]
        for support, rim, spoke, det in fan:
            b = -(x * spoke[0] + y * spoke[1] + z * spoke[2])
            if b >= 0 and g >= 0:
                a = x * rim[0] + y * rim[1] + z * rim[2]
                if a >= 0:
                    return support, (a, b, g), det
            g = -b
        point = ", ".join(format_value(Fraction(ci, s)) for ci in c)
        raise OutsidePolygon(f"point ({point}) lies outside the section polygon")

    return locate


def _unit_lines(k: int):
    return [([int(i == r) for i in range(k)], 1) for r in range(k)]


def _convex_weights(rays, cleared, lines) -> Matrix:
    """``m @ W`` in one integer pass, for W the k x n right factor of a
    nonnegative matrix through its k vertex rays and m the matrix with
    rows y / e for (y, e) in ``lines``: the identity, its rows scaled for
    primitive vertex columns (k <= 6) or the cyclic core's right factor.
    Column j of W holds the convex coefficients of normalized column j
    times its sum, zero for a zero column.  Column j is c / d for
    cleared[j] = (c, d), so vertex i weighs nums * S_i / (det * d) in it,
    and each entry is one Fraction."""
    locate = _fan(rays)
    lines = [([y * s for y, (_, s) in zip(row, rays)], e) for row, e in lines]
    zero = (_ZERO,) * len(lines)
    out = []
    for c, d in cleared:
        s = sum(c)
        if not s:
            out.append(zero)
            continue
        (i, j, l), (ni, nj, nl), det = locate(c, s)
        den = det * d
        nums = [(r[i] * ni + r[j] * nj + r[l] * nl, e) for r, e in lines]
        out.append(tuple(Fraction(n, e * den) if n else _ZERO for n, e in nums))
    return Matrix._raw(tuple(zip(*out)), len(lines), len(cleared))


def convex_coefficients(poly: SectionPolygon, point: Sequence) -> Tuple[Fraction, ...]:
    """Express an ambient point of the polygon as an exact convex
    combination of its vertices (at most three nonzero coefficients,
    located by fan triangulation from vertex 0)."""
    target = tuple(Fraction(x) for x in point)
    if len(target) != len(poly.chart_origin):
        raise DimensionError("point dimension does not match the section")
    if sum(target) != 1:
        raise OutsidePolygon("point does not lie in the section plane")
    rays = [(x, sum(x)) for x, _ in cleared_columns(poly.vertex_matrix)]
    weights = _convex_weights(rays, [clear_denominators(target)], _unit_lines(poly.k)).column(0)
    used = [(w, vert.ambient) for w, vert in zip(weights, poly.vertices) if w]
    if tuple(sum((w * x[i] for w, x in used), _ZERO) for i in range(len(target))) != target:
        raise InternalError("convex combination does not reproduce the point")
    return weights


def factor_seven_by_n(a: Matrix):
    """Factor a nonnegative rank-3 matrix with 7 rows through its section
    polygon.  Returns (left, right, info) with left and right nonnegative,
    left @ right == a exactly, and inner dimension at most 6.

    A section with k <= 6 vertices yields inner dimension k less its unused
    vertices; a 7-vertex section factors once more through its cyclic pattern.
    """
    _check_seven_rows_rank3(a)
    left, right, info = _factor_seven_by_n(a)
    if not is_product(left, right, a):
        raise InternalError("seven-row factorization failed to reproduce the input")
    return left, right, info


def _factor_seven_by_n(a: Matrix):
    """``factor_seven_by_n`` for a matrix that passed
    _check_seven_rows_rank3, with no product check of its own and no
    chart, on the columns its rank was computed from.  The counterclockwise
    vertices t and t + 1 of a 7-vertex section share one tight row, their
    edge, which the labeling puts at t: the labeling
    ``detect_cyclic_labeling`` finds on the vertex matrix."""
    cleared = cleared_columns(a)
    rays, _, _ = _section_rays(cleared)
    k = len(rays)
    if k <= 6:
        gs = [gcd(*x) for x, _ in rays]
        lines = [([g * (i == t) for i in range(k)], s) for t, (g, (_, s)) in enumerate(zip(gs, rays))]
        right = _convex_weights(rays, cleared, lines)
        used = [t for t, row in enumerate(right.data) if any(row)]
        left = tuple(zip(*(tuple(Fraction(x // gs[t]) for x in rays[t][0]) for t in used)))
        right = Matrix._raw(tuple(right.data[t] for t in used), len(used), right.cols)
        info = {"method": "section", "vertices": k, "inner_dim": len(used)}
        return Matrix._raw(left, SIZE, len(used)), right, info
    tight = [{i for i, t in enumerate(x) if not t} for x, _ in rays]
    edges = [tight[t] & tight[(t + 1) % SIZE] for t in range(SIZE)]
    labeling = CyclicLabeling(tuple(min(edge) for edge in edges), tuple(range(SIZE)))
    left, lines, steps, mirrored = _factor_cyclic([x for x, _ in rays], [s for _, s in rays], labeling)
    info = {"method": "section+cyclic", "vertices": k, "inner_dim": 6,
            "search_steps": steps, "mirrored": mirrored}
    return left, _convex_weights(rays, cleared, lines), info


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

    cleared = cleared_columns(a)
    if r == 1:
        # The left column is the first nonzero column c_b made primitive,
        # c_b // g, so column c / d weighs c[p] * g / (d * c_b[p]).
        cb = next(c for c, _ in cleared if any(c))
        p, g = next(i for i, x in enumerate(cb) if x), gcd(*cb)
        for c, _ in cleared:
            if any(x * cb[p] != y * c[p] for x, y in zip(c, cb)):
                raise InternalError("rank-1 matrix has a non-proportional column")
        left = Matrix._raw(tuple((Fraction(x // g),) for x in cb), a.rows, 1)
        right = Matrix._raw((tuple(Fraction(c[p] * g, d * cb[p]) for c, d in cleared),), 1, a.cols)
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

    # The ends made primitive, c // g, are the left columns; the weights
    # against them come again by Cramer on the rows p, q.
    c_low, c_high = cleared[low][0], cleared[high][0]
    g_low, g_high = gcd(*c_low), gcd(*c_high)
    span = c_low[p] * c_high[q] - c_low[q] * c_high[p]
    w_low, w_high = [_ZERO] * a.cols, [_ZERO] * a.cols
    for j in kept:
        c, d = cleared[j]
        w_low[j] = Fraction((c[p] * c_high[q] - c[q] * c_high[p]) * g_low, span * d)
        w_high[j] = Fraction((c_low[p] * c[q] - c_low[q] * c[p]) * g_high, span * d)
    right = Matrix._raw((tuple(w_low), tuple(w_high)), 2, a.cols)
    left = tuple((Fraction(x // g_low), Fraction(y // g_high)) for x, y in zip(c_low, c_high))
    return Matrix._raw(left, a.rows, 2), right, {"method": "segment", "inner_dim": 2}
