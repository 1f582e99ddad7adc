"""Rational convex polygons, their slack matrices, and lifted
descriptions with at most ceil(6n/7) inequalities.

A polygon is stored as counterclockwise vertices plus one inequality
c(x) >= beta per edge.  The slack matrix evaluates every inequality at
every vertex, once per polygon (``Polygon.slack``), and every reader
shares it.  Factoring it as T @ U with nonnegative factors turns U's
columns into lift points and T into the mixing matrix of a description

    c_i(x) - beta_i = (T y)_i  for all facets i,    y >= 0,

whose projection to the plane is exactly the polygon.  By Yannakakis'
theorem that is all a description must show: ``verify_extension`` checks
(T, lifts) as a certificate of the slack matrix, and (C, beta) as the
polygon's own facets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence, Tuple

from .driver import (Factorization, VerificationReport, inner_dimension_bound, nn_factor,
                     verify_factorization)
from .errors import (
    CollinearVertices,
    DuplicateVertices,
    InternalError,
    NotConvex,
)
from .linalg import Matrix, clear_denominators, format_value, rank
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
                raise DuplicateVertices("vertices {} and {} coincide at ({}, {})".format(
                    i, j, *map(format_value, vertices[i])))

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
    """Re-check a lifted description exactly: (T, lifts) must pass
    ``verify_factorization`` as a certificate of the slack matrix, T the
    left factor and lifts the right, and each (C_i, beta_i) must be facet i."""
    n = poly.n
    if (ef.T.shape, ef.lifts.shape, ef.C.shape, len(ef.beta)) != ((n, ef.k), (ef.k, n), (n, 2), n):
        return VerificationReport([
            f"shape mismatch: T is {ef.T.shape}, lifts is {ef.lifts.shape}, "
            f"C is {ef.C.shape}, |beta| is {len(ef.beta)}; expected ({n}, {ef.k}), "
            f"({ef.k}, {n}), ({n}, 2) and {n}"
        ])
    fact = Factorization(ef.T, ef.lifts, ef.k, inner_dimension_bound(n, n), ())
    report = verify_factorization(poly.slack, fact)
    for i, (row, beta, facet) in enumerate(zip(ef.C.data, ef.beta, poly.facets)):
        if (*row, beta) != facet:
            shown = ", ".join(map(format_value, (*row, beta)))
            report.failures.append(f"inequality {i}, ({shown}), is not facet {i} of the polygon")
    return report
