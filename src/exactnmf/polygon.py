"""Rational convex polygons, their slack matrices, and lifted
descriptions with at most ceil(6n/7) inequalities.

A polygon is stored as counterclockwise vertices plus one inequality
c(x) >= beta per edge.  ``polygon_from_points``, the checked constructor,
clears each vertex once to homogeneous integers (X, Y, d), d > 0, and
validates the walk on those in linear time: a dict finds duplicates, a
3 x 3 determinant gives each turn's sign, and the edge directions must
wind once; a ``Polygon`` built by hand is taken as given.  The slack
matrix evaluates every inequality at every vertex on first read
(``Polygon.slack``), and every reader shares it.  Factoring it as T @ U
with nonnegative factors turns U's columns into lift points and T into
the mixing matrix of a description

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
from operator import mul
from typing import Sequence, Tuple

from .driver import (Factorization, VerificationReport, inner_dimension_bound, nn_factor,
                     verify_factorization)
from .errors import CollinearVertices, DimensionError, DuplicateVertices, InternalError, NotConvex
from .linalg import Matrix, _cross3, clear_denominators, format_value, rank
from .validation import as_point

Point = Tuple[Fraction, Fraction]
Facet = Tuple[Fraction, Fraction, Fraction]  # (cx, cy, beta): cx*x + cy*y >= beta


@dataclass(frozen=True)
class Polygon:
    """Strictly convex polygon, vertices counterclockwise; facet i joins
    vertex i to vertex i+1 and every other vertex satisfies it strictly.
    ``polygon_from_points`` checks it; one built by hand is taken as given."""

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
        """Every facet inequality at every vertex, built on first read: with
        vertex t cleared to (X_t, Y_t) / d_t and facet i to (A_i, B_i, C_i) / D_i,
        entry (i, t) is c_i(p_t) - beta_i = (A_i X_t + B_i Y_t - C_i d_t) / (D_i d_t)."""
        points = [(*xy, d) for xy, d in map(clear_denominators, self.vertices)]
        return Matrix._raw(tuple(
            tuple(Fraction(a * x + b * y - c * d, den * d) for x, y, d in points)
            for (a, b, c), den in map(clear_denominators, self.facets)), len(self.facets), self.n)


def _facet_through(p, q) -> Facet:
    """Inward inequality through the directed edge p -> q of a
    counterclockwise polygon, p and q homogeneous integer rows: (A, B) is
    the first two coordinates of p x q over their gcd, coprime integers,
    and beta = (A X_p + B Y_p) / d_p."""
    a, b, _ = _cross3(p, q)
    g = math.gcd(a, b)
    a, b = a // g, b // g
    return (Fraction(a), Fraction(b), Fraction(a * p[0] + b * p[1], p[2]))


def polygon_from_points(points: Sequence) -> Polygon:
    """Build a validated polygon from an ordered vertex list, in linear time.

    The list must walk the boundary of a strictly convex polygon once; a
    clockwise walk is reversed.  Duplicate vertices, collinear triples,
    non-convex and self-wrapping walks are rejected.
    """
    if not hasattr(points, "__iter__"):
        raise DimensionError(f"polygon input must be two-dimensional, not {type(points).__name__}")
    vertices = [as_point(p) for p in points]
    n = len(vertices)
    if n < 3:
        raise NotConvex(f"a polygon needs at least 3 vertices, got {n}")
    rows = [(*xy, d) for xy, d in map(clear_denominators, vertices)]  # equal points, equal rows
    # The pair a pairwise scan names: the first vertex with a later copy, and its first copy.
    first = {}
    copies = [(first.setdefault(row, j), j) for j, row in enumerate(rows)]
    pair = min(((i, j) for i, j in copies if i < j), default=None)
    if pair is not None:
        raise DuplicateVertices("vertices {} and {} coincide at ({}, {})".format(
            *pair, *map(format_value, vertices[pair[0]])))

    # det of rows i, i+1, i+2: turn i's cross product times d_i d_i+1 d_i+2 > 0
    turns = [sum(map(mul, rows[i], _cross3(rows[(i + 1) % n], rows[(i + 2) % n])))
             for i in range(n)]
    if 0 in turns:
        i = turns.index(0)
        raise CollinearVertices(f"vertices {i}, {(i + 1) % n}, {(i + 2) % n} are collinear")
    if all(t < 0 for t in turns):
        vertices, rows = [vertices[0]] + vertices[:0:-1], [rows[0]] + rows[:0:-1]
    elif not all(t > 0 for t in turns):
        raise NotConvex("vertex walk changes turning direction")

    # Edge directions, scaled by d_p d_q > 0.  A left turn of less than pi
    # passes +x only from a lower direction to an upper one, once a winding.
    edges = list(zip(rows, rows[1:] + rows[:1]))
    lower = [dy < 0 or (dy == 0 and dx < 0) for dx, dy in
             ((q[0] * p[2] - p[0] * q[2], q[1] * p[2] - p[1] * q[2]) for p, q in edges)]
    winds = sum(a and not b for a, b in zip(lower, lower[1:] + lower[:1]))
    if winds != 1:
        raise NotConvex(f"the vertex walk winds {winds} times; a simple convex boundary winds once")
    return Polygon(tuple(vertices), tuple(_facet_through(p, q) for p, q in edges))


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
