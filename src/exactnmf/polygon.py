"""Rational convex polygons, their slack matrices, and lifted
descriptions with at most ceil(6n/7) inequalities.

A polygon is stored as counterclockwise vertices plus one inequality
c(x) >= beta per edge.  The slack matrix evaluates every inequality at
every vertex, once per polygon (``Polygon.slack``), and every reader
shares it.  Factoring it as T @ U with nonnegative factors turns U's
columns into lift points and T into the mixing matrix of a description

    c_i(x) - beta_i = (T y)_i  for all facets i,    y >= 0,

whose projection to the plane is exactly the polygon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence, Tuple

from .driver import VerificationReport, inner_dimension_bound, nn_factor
from .errors import (
    CollinearVertices,
    DuplicateVertices,
    InternalError,
    NotConvex,
)
from .linalg import Matrix, clear_denominators, product_difference, rank
from .validation import as_point

Point = Tuple[Fraction, Fraction]
Facet = Tuple[Fraction, Fraction, Fraction]  # (cx, cy, beta): cx*x + cy*y >= beta


@dataclass(frozen=True)
class Polygon:
    """Strictly convex polygon, vertices counterclockwise; facet i joins
    vertex i to vertex i+1 and every other vertex satisfies it strictly."""

    vertices: Tuple[Point, ...]
    facets: Tuple[Facet, ...]

    @property
    def n(self) -> int:
        return len(self.vertices)

    def facet_value(self, i: int, point: Point) -> Fraction:
        cx, cy, beta = self.facets[i]
        return cx * point[0] + cy * point[1] - beta

    @cached_property
    def slack(self) -> Matrix:
        """Every facet inequality at every vertex, built on first use: entry
        (i, t) is c_i(p_t) - beta_i, checked to vanish exactly when vertex t
        lies on facet i (t = i or i+1) and to be positive elsewhere.  A
        failed check is not kept, so it raises on every access.  Cleared of
        denominators, vertex t is (X_t, Y_t) / d_t and facet i is (A_i, B_i,
        C_i) / D_i, so entry (i, t) is (A_i X_t + B_i Y_t - C_i d_t) /
        (D_i d_t), and the checks read its integer numerator."""
        points = [(x, y, d) for (x, y), d in map(clear_denominators, self.vertices)]
        n = len(points)
        data = []
        for i, ((a, b, c), den) in enumerate(map(clear_denominators, self.facets)):
            row = [a * x + b * y - c * d for x, y, d in points]
            for t, value in enumerate(row):
                incident = t == i or t == (i + 1) % n
                if incident and value != 0:
                    raise InternalError(f"vertex {t} misses its own facet {i}")
                if not incident and value <= 0:
                    raise NotConvex(
                        f"vertex {t} does not satisfy facet {i} strictly; "
                        "the walk is not a simple convex boundary"
                    )
            data.append(tuple(Fraction(v, den * d) for v, (_, _, d) in zip(row, points)))
        return Matrix._raw(tuple(data), n, n)


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


def polygon_from_points(points: Sequence) -> Polygon:
    """Build a validated polygon from an ordered vertex list.

    The list must walk the boundary of a strictly convex polygon; a
    clockwise walk is reversed.  Duplicate vertices, collinear triples
    and non-convex input are rejected.
    """
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
    poly.slack  # excludes self-wrapping walks (all turns equal-signed but not simple)
    return poly


@dataclass(frozen=True)
class SlackMatrix:
    """Facet-by-vertex slack values of a polygon; rank is always 3."""

    matrix: Matrix
    rank: int


def slack_matrix(poly: Polygon) -> SlackMatrix:
    """The slack values with their rank checked: 3, as S = F V for the n x 3
    facet rows (c_i, -beta_i) and the 3 x n homogeneous vertices (p_t, 1)."""
    s = poly.slack
    r = rank(s)
    if r != 3:
        raise InternalError(f"slack matrix of a polygon must have rank 3, got {r}")
    return SlackMatrix(matrix=s, rank=r)


@dataclass(frozen=True)
class ExtendedFormulation:
    """Lifted description of a polygon with k sign constraints.

    The lifted polytope lives in (x, y) space: equalities
    C x - beta = T y hold together with y >= 0, and projecting to x gives
    back the polygon.  Column t of ``lifts`` is a valid y for vertex t.
    """

    k: int
    T: Matrix  # n x k, nonnegative
    C: Matrix  # n x 2 facet functionals
    beta: Tuple[Fraction, ...]
    lifts: Matrix  # k x n


def build_extension(poly: Polygon) -> ExtendedFormulation:
    """Describe the polygon as a projection using at most ceil(6n/7)
    inequalities, by factoring its slack matrix."""
    slack = slack_matrix(poly)
    fact = nn_factor(slack.matrix)
    return ExtendedFormulation(
        k=fact.inner_dim,
        T=fact.left,
        C=Matrix([(cx, cy) for (cx, cy, _) in poly.facets]),
        beta=tuple(beta for (_, _, beta) in poly.facets),
        lifts=fact.right,
    )


def verify_extension(poly: Polygon, ef: ExtendedFormulation) -> VerificationReport:
    """Re-check the four exactness conditions of a lifted description.

    1. T @ lifts reproduces the slack matrix entry by entry.
    2. Every vertex lift is nonnegative and satisfies all equalities,
       so the polygon is contained in the projection.
    3. T is nonnegative, so every lifted point projects into the polygon.
    4. The inequality count k is at most ceil(6n/7).
    """
    report = VerificationReport()
    n = poly.n
    slack = poly.slack  # no condition reads its rank, so none is computed

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

    # When the product check passes, T @ lifts is the slack matrix itself,
    # so the per-vertex loop below reads it from there.  If C and beta are
    # also the polygon's own facets, the slack matrix holds exactly the
    # values that loop computes, so its equalities hold and it is skipped.
    hit = product_difference(ef.T, ef.lifts, slack)
    if hit is not None:
        i, t, value = hit
        report.failures.append(
            f"slack reconstruction fails at facet {i}, vertex {t}: {value} != {slack.data[i][t]}"
        )
    product = slack if hit is None else ef.T @ ef.lifts
    equalities_known = hit is None and (
        ef.C.data == tuple((cx, cy) for cx, cy, _ in poly.facets)
        and tuple(ef.beta) == tuple(beta for _, _, beta in poly.facets)
    )

    for t in range(n):
        lift = ef.lifts.column(t)
        negative = next(((r, y) for r, y in enumerate(lift) if y.numerator < 0), None)
        if negative is not None:
            report.failures.append(
                f"lift of vertex {t} has negative coordinate {negative[0]} "
                f"(value {negative[1]})"
            )
            continue
        if equalities_known:
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
