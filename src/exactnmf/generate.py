"""Seeded generators of exact random test instances.

All randomness flows through :class:`~exactnmf.rng.SplitMix64`, and every
produced coordinate is an exact rational, so instances reproduce bit for
bit from a seed on any platform.  Polygon vertices are computed on
integers and become one Fraction per coordinate.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from .canonical import CanonicalParams, is_admissible
from .linalg import Matrix, rank
from .polygon import Polygon, polygon_from_points, slack_matrix
from .rng import SplitMix64

# Rational points on the unit circle: within each quadrant the point is
# ((1-t^2)/(1+t^2), 2t/(1+t^2)) for t = k/QUADRANT_STEPS in [0, 1),
# rotated by a multiple of 90 degrees.  The angle grows with k, so sorted
# parameters walk the circle counterclockwise.
QUADRANT_STEPS = 1 << 16


def _circle_point(u: int) -> Tuple[int, int, int]:
    """The point of parameter u as integers (X, Y, D), the point (X/D, Y/D):
    (S^2 - k^2, 2Sk) over S^2 + k^2, S = QUADRANT_STEPS, turned once per quadrant."""
    quadrant, k = divmod(u, QUADRANT_STEPS)
    x, y = QUADRANT_STEPS**2 - k * k, 2 * QUADRANT_STEPS * k
    for _ in range(quadrant):
        x, y = -y, x
    return x, y, QUADRANT_STEPS**2 + k * k


def random_convex_polygon(rng: SplitMix64, n: int) -> Polygon:
    """Strictly convex n-gon with rational vertices.

    Vertices are distinct rational points of a randomly placed rational
    circle, listed counterclockwise; no three are collinear.  The radius
    is r/256 and the center c/64, so a coordinate is one Fraction,
    (4 c D + r X) / (256 D).
    """
    if n < 3:
        raise ValueError("a polygon needs at least 3 vertices")
    params: set = set()
    while len(params) < n:
        params.add(rng.below(4 * QUADRANT_STEPS))
    r = 256 + rng.below(256)
    cx, cy = (4 * (rng.below(513) - 256) for _ in range(2))
    points = [(Fraction(cx * d + r * x, 256 * d), Fraction(cy * d + r * y, 256 * d))
              for x, y, d in map(_circle_point, sorted(params))]
    return polygon_from_points(points)


def random_admissible_params(rng: SplitMix64, denominator: int = 4096) -> CanonicalParams:
    """Rejection-sample an admissible parameter tuple.

    Candidates honor the necessary ordering (1 > a1 > a2 > a3 > 0 and
    0 < b1 < b2 < b3 < 1 with a1+b1 < 1 and a3+b3 < 1) before the full
    positivity test runs.
    """
    one = Fraction(1)
    while True:
        xs = sorted(rng.below(denominator - 1) + 1 for _ in range(3))
        ys = sorted(rng.below(denominator - 1) + 1 for _ in range(3))
        if xs[0] == xs[1] or xs[1] == xs[2] or ys[0] == ys[1] or ys[1] == ys[2]:
            continue
        a1, a2, a3 = (Fraction(x, denominator) for x in reversed(xs))
        b1, b2, b3 = (Fraction(y, denominator) for y in ys)
        if a1 + b1 >= one or a3 + b3 >= one:
            continue
        candidate = CanonicalParams(a1, a2, a3, b1, b2, b3)
        if is_admissible(candidate):
            return candidate


def random_nonnegative_matrix(rng: SplitMix64, rows: int, cols: int, denominator: int = 64) -> Matrix:
    return Matrix(
        [[rng.fraction(denominator) for _ in range(cols)] for _ in range(rows)]
    )


def _random_positive_vector(rng: SplitMix64, size: int, denominator: int = 64) -> List[Fraction]:
    return [Fraction(rng.below(denominator) + 1, denominator) for _ in range(size)]


def random_rank_one(rng: SplitMix64, rows: int, cols: int) -> Matrix:
    """Nonnegative outer product, rank exactly 1."""
    u = _random_positive_vector(rng, rows)
    v = _random_positive_vector(rng, cols)
    return Matrix([[ui * vj for vj in v] for ui in u])


def random_rank_two(rng: SplitMix64, rows: int, cols: int) -> Matrix:
    """Sum of two nonnegative outer products, resampled until rank 2."""
    while True:
        u1 = _random_positive_vector(rng, rows)
        v1 = _random_positive_vector(rng, cols)
        u2 = _random_positive_vector(rng, rows)
        v2 = _random_positive_vector(rng, cols)
        m = Matrix(
            [
                [u1[i] * v1[j] + u2[i] * v2[j] for j in range(cols)]
                for i in range(rows)
            ]
        )
        if rank(m) == 2:
            return m


def random_rank3_seven_by_n(rng: SplitMix64, cols: int) -> Matrix:
    """Nonnegative 7 x cols matrix of rank exactly 3, built as a heptagon
    slack matrix times random nonnegative convex weights."""
    while True:
        heptagon = random_convex_polygon(rng, 7)
        s = slack_matrix(heptagon).matrix
        weights = []
        for _ in range(cols):
            col = [Fraction(0)] * 7
            # combine up to three vertices with positive weights
            support = {rng.below(7) for _ in range(3)}
            for idx in support:
                col[idx] = Fraction(rng.below(63) + 1, 64)
            weights.append(col)
        b = Matrix.from_columns(weights)
        m = s @ b
        if rank(m) == 3:
            return m
