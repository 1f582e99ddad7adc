"""Sectioning the standard simplex by a rank-3 column space.

For a nonnegative 7xn matrix of rank 3, the column space meets the
standard simplex in a polygon with at most 7 vertices.  Writing every
normalized column as a convex combination of those vertices factors the
matrix through them; a 7-vertex section carries the cyclic zero pattern
and factors further down to inner dimension 6.  Rank 0, 1 and 2 inputs
factor directly at their rank.

The section is an integer cone: each vertex is an extreme ray x of the
cone of nonnegative vectors in the column space.  The rays are ordered
counterclockwise by sign tests on ints and divided by their gcd, and the
factoring core takes these bare rays as the vertices: each column is
located in the fan of cones (0, t, t + 1) over them by integer 3x3
determinants, and only nonzero weights and output entries become
Fractions.  Rank 2 is the same on a line, by integer 2x2 determinants
against the segment's two ends made primitive.  Every kernel reads what
the rank that chose it kept on the matrix: the cleared columns, and the
pivot columns that are its basis.  A vertex that no column weighs leaves
both factors.

``section_polygon`` and ``convex_coefficients`` show the section in an
exact 2-D chart, and only they build one.  ``factor_seven_by_n`` and
``factor_low_rank`` check input and product for direct callers;
``nn_factor`` calls their cores, which trust its rank and nonnegativity
and leave the product to its one closing check.  A 7-vertex section hands
the cyclic core its primitive rays and the relabeling its tight sets fix,
and gets its right factor back as integer rows for the fan pass.
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
from .errors import DimensionError, InternalError, OutsidePolygon, RankError
from .linalg import (Matrix, clear_denominators, cleared_columns, format_value, is_product,
                     pivot_columns, rank)
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
    rays, hs, ((c0, s0), (cu, su), (cv, sv)) = _section_rays(a)
    data = tuple(zip(*(tuple(Fraction(t, s) for t in x) for x in rays for s in (sum(x),))))
    vertex_matrix = Matrix._raw(data, SIZE, len(rays))
    vertices = tuple(
        SectionVertex((Fraction(h[1] * su, s), Fraction(h[2] * sv, s)), ambient,
                      tuple(i for i, t in enumerate(x) if not t))
        for x, h, ambient in zip(rays, hs, zip(*vertex_matrix.data)) for s in (sum(x),)
    )
    return SectionPolygon(
        chart_origin=tuple(Fraction(x, s0) for x in c0),
        chart_u=tuple(Fraction(y * s0 - x * su, su * s0) for x, y in zip(c0, cu)),
        chart_v=tuple(Fraction(y * s0 - x * sv, sv * s0) for x, y in zip(c0, cv)),
        vertices=vertices,
        vertex_matrix=vertex_matrix,
    )


def _section_rays(a: Matrix):
    """(rays, hs, basis) for a matrix that passed _check_seven_rows_rank3:
    vertex t is the integer ray x = rays[t] at x / sum(x), counterclockwise
    in the chart of ``section_polygon``, and x = B hs[t] for B with the
    columns of basis = ((c0, s0), (cu, su), (cv, sv)): the three pivot
    columns of ``a`` cleared, with their sums.  On nonnegative input they
    are the first nonzero column, the first column off its line (u) and the
    first column off their plane (v).  x is not primitive; the factoring
    core divides it by gcd(x), since the chart reads h with sum(x).

    The section is the cone {B h >= 0} cut at unit sum: rows i and j are
    tight on the ray h = b_i x b_j (rows of B), a vertex when B h has one
    sign.  Zero and proportional rows have a zero cross product.
    """
    cleared = cleared_columns(a)
    (c0, s0), (cu, su), (cv, sv) = [(c, sum(c)) for c, _ in (cleared[j] for j in pivot_columns(a))]

    # A vertex where more than two rows are tight is met once per pair of
    # them; distinct vertices have distinct tight sets, so the first is kept.
    rows = list(zip(c0, cu, cv))
    found = {}
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
            found.setdefault(tuple(map(bool, x)), (x, h))

    if not 3 <= len(found) <= SIZE:
        raise InternalError(f"section produced {len(found)} vertices; 3 to 7 are possible")
    rays, hs = zip(*found.values())
    # Chart coordinates (h[1] * su, h[2] * sv) / sum(x), times the lcm of the sums.
    big = lcm(*map(sum, rays))
    order = _ccw_order(*zip(*(
        (h[1] * su * m, h[2] * sv * m) for x, h in zip(rays, hs) for m in (big // sum(x),)
    )))
    rays, hs = [rays[t] for t in order], [hs[t] for t in order]
    for t, x in enumerate(rays if len(rays) == SIZE else ()):
        if x.count(0) != 2:
            raise InternalError(f"vertex {t} of a 7-vertex section has {x.count(0)} "
                                "tight constraints; exactly 2 are possible")
    return rays, hs, ((c0, s0), (cu, su), (cv, sv))


def _fan(w):
    """locate(c, s) over counterclockwise integer vertex rays w: the first
    fan cone (0, t, t + 1) that holds the integer column c of positive sum
    s, as (support, nums, det), det > 0 and nums >= 0 with det * c the sum
    of nums[i] times ray support[i].

    On three rows where the rays w are independent, c's cone coordinates
    times cone t's determinant d_t are det(c, w_t, w_t+1), det(w_0, c,
    w_t+1) and det(w_0, w_t, c): c dotted with cross products of rays,
    the third of cone t + 1 being minus the second of cone t.  All d_t of
    a counterclockwise fan have one sign.  c must lie in the rays' span,
    as every column of the matrix they were cut from does; the other rows
    are not read.  Raises OutsidePolygon when c / s is outside.
    """
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

    (p, q, r), first = rows, spokes[1]

    def locate(c, s):
        x, y, z = c[p], c[q], c[r]
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


def _diagonal_lines(scales):
    return [([s if i == r else 0 for i in range(len(scales))], 1) for r, s in enumerate(scales)]


def _convex_weights(rays, cleared, lines) -> Matrix:
    """``m @ W`` in one integer pass, for W the k x n right factor of a
    nonnegative matrix through its k integer rays, and m the matrix with
    rows y / e for (y, e) in ``lines``: the identity, or the cyclic core's
    right factor.  Column j of W weighs ray i by nums / (det * d) for
    cleared[j] = (c, d), the column c / d, zero for a zero column, and each
    entry is one Fraction."""
    locate = _fan(rays)
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
    located by fan triangulation from vertex 0).  A point off the plane
    (its sum is not 1, or it raises the vertex matrix's rank) or outside
    the polygon raises OutsidePolygon."""
    target = tuple(Fraction(x) for x in point)
    if len(target) != len(poly.chart_origin):
        raise DimensionError("point dimension does not match the section")
    if sum(target) != 1 or rank(Matrix.from_columns([*poly.vertex_matrix.columns(), target])) != 3:
        raise OutsidePolygon("point does not lie in the section plane")
    # The vertex x / d weighs d times what the integer ray x weighs.
    rays, dens = zip(*cleared_columns(poly.vertex_matrix))
    weights = _convex_weights(rays, [clear_denominators(target)], _diagonal_lines(dens)).column(0)
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
    """``factor_seven_by_n`` for a matrix that passed _check_seven_rows_rank3,
    with no product check or chart, on the columns its rank was computed
    from, through the primitive rays x // gcd(x) themselves as vertices.
    Counterclockwise vertices t and t + 1 of a 7-vertex section share one
    tight row, their edge, which the labeling puts at t, as
    ``detect_cyclic_labeling`` does on the vertex matrix."""
    cleared = cleared_columns(a)
    rays = [[t // g for t in x] for x in _section_rays(a)[0] for g in (gcd(*x),)]
    k = len(rays)
    if k <= 6:
        right = _convex_weights(rays, cleared, _diagonal_lines((1,) * k))
        used = [t for t, row in enumerate(right.data) if any(row)]
        left = tuple(zip(*(tuple(map(Fraction, rays[t])) for t in used)))
        right = Matrix._raw(tuple(right.data[t] for t in used), len(used), right.cols)
        info = {"method": "section", "vertices": k, "inner_dim": len(used)}
        return Matrix._raw(left, SIZE, len(used)), right, info
    tight = [{i for i, t in enumerate(x) if not t} for x in rays]
    edges = [tight[t] & tight[(t + 1) % SIZE] for t in range(SIZE)]
    labeling = CyclicLabeling(tuple(min(edge) for edge in edges), tuple(range(SIZE)))
    left, lines, steps, mirrored = _factor_cyclic(rays, labeling)
    info = {"method": "section+cyclic", "vertices": k, "inner_dim": 6,
            "search_steps": steps, "mirrored": mirrored}
    return left, _convex_weights(rays, cleared, lines), info


def factor_low_rank(a: Matrix):
    """Exact nonnegative factorization of a rank <= 2 nonnegative matrix
    with inner dimension equal to its rank."""
    check_nonnegative(a)
    r = rank(a, cap=3)
    if r > 2:
        raise RankError("low-rank factorization requires rank <= 2, got rank at least 3")
    left, right, info = _factor_low_rank(a)
    if not is_product(left, right, a):
        raise InternalError(f"rank-{r} factorization failed to reproduce the input")
    return left, right, info


def _factor_low_rank(a: Matrix):
    """``factor_low_rank`` for a nonnegative ``a`` of rank <= 2, with no
    product check: its rank and basis are its pivot columns."""
    pivots = pivot_columns(a)
    if not pivots:
        return Matrix.zeros(a.rows, 0), Matrix.zeros(0, a.cols), {"method": "zero", "inner_dim": 0}

    cleared = cleared_columns(a)
    if len(pivots) == 1:
        # The left column is the first nonzero column c_b made primitive,
        # c_b // g, so column c / d weighs c[p] * g / (d * c_b[p]).
        cb = cleared[pivots[0]][0]
        p, g = next(i for i, x in enumerate(cb) if x), gcd(*cb)
        left = Matrix._raw(tuple((Fraction(x // g),) for x in cb), a.rows, 1)
        right = Matrix._raw((tuple(Fraction(c[p] * g, d * cb[p]) for c, d in cleared),), 1, a.cols)
        return left, right, {"method": "single-column", "inner_dim": 1}

    # Column j is c / d_j with integer c, and positions on the segment are
    # compared by cross-multiplication, so only the left factor's entries
    # and the nonzero weights become Fractions.
    sums = [sum(c) for c, _ in cleared]
    kept = [j for j, s in enumerate(sums) if s]
    # The first rows p, q where the 2x2 minor of the basis (c_o, c_u) is
    # nonzero, swapped where that makes it positive.
    c_o, c_u = cleared[pivots[0]][0], cleared[pivots[1]][0]
    p, q = next((p, q) for p, q in combinations(range(a.rows), 2) if c_o[p] * c_u[q] != c_o[q] * c_u[p])
    if c_o[p] * c_u[q] < c_o[q] * c_u[p]:
        p, q = q, p
    # By Cramer on the rows p, q, minor * c = det(c, c_u) * c_o + det(c_o, c) * c_u
    # for every column c in the span; the normalized column then sits at
    # det(c_o, c) * s_u / (minor * sum(c)) on the line, and s_u / minor > 0.
    position = {j: c_o[p] * cleared[j][0][q] - c_o[q] * cleared[j][0][p] for j in kept}
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
