"""Rational convex polygons, their slack matrices, and lifted
descriptions with at most ceil(6n/7) inequalities.

A polygon is stored as counterclockwise vertices plus one inequality
c(x) >= beta per edge.  ``polygon_from_points`` clears each vertex once to
homogeneous integers (X, Y, d), d > 0, and works on those alone: a dict
of them finds duplicates in one pass, a 3 x 3 determinant gives each
turn's sign, and a cross product each facet.  The slack matrix evaluates
every inequality at every vertex, once per polygon (``Polygon.slack``),
and every reader shares it.  Factoring it as T @ U with nonnegative
factors turns U's columns into lift points and T into the mixing matrix
of a description

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

from .canonical import _cross3
from .driver import (Factorization, VerificationReport, inner_dimension_bound, nn_factor,
                     verify_factorization)
from .errors import CollinearVertices, DuplicateVertices, InternalError, NotConvex
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
        """Every facet inequality at every vertex: ``polygon_from_points``
        builds it, any other polygon on first use.  A failed check is not
        kept, so it raises on every access."""
        return _slack_table([(*xy, d) for xy, d in map(clear_denominators, self.vertices)],
                            self.facets)


def _slack_table(points, facets) -> Matrix:
    """Entry (i, t) is c_i(p_t) - beta_i, checked to vanish exactly when
    vertex t lies on facet i (t = i or i+1) and to be positive elsewhere.
    Vertex t is (X_t, Y_t) / d_t, given as ``points[t]``, and facet i,
    cleared, (A_i, B_i, C_i) / D_i, so entry (i, t) is (A_i X_t + B_i Y_t -
    C_i d_t) / (D_i d_t), and the checks read its integer numerator."""
    n = len(points)
    data = []
    for i, ((a, b, c), den) in enumerate(map(clear_denominators, facets)):
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
    """Build a validated polygon from an ordered vertex list.

    The list must walk the boundary of a strictly convex polygon; a
    clockwise walk is reversed.  Duplicate vertices, collinear triples
    and non-convex input are rejected.
    """
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

    facets = tuple(_facet_through(rows[i], rows[(i + 1) % n]) for i in range(n))
    poly = Polygon(tuple(vertices), facets)
    # From the rows above; it excludes self-wrapping walks (all turns equal-signed but not simple).
    poly.__dict__["slack"] = _slack_table(rows, facets)
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
