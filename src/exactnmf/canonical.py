"""The canonical six-parameter family of cyclic-patterned rank-3 matrices.

A parameter tuple (a1, a2, a3, b1, b2, b3) determines seven base points in
homogeneous coordinates; the 7x7 canonical matrix has entry (i, j) equal to
the determinant of the base-point triple (i-1, j-2, j-1), all indices
cyclic mod 7 with representative 7 for residue 0.  The matrix vanishes
exactly at i in {j-1, j} and an "admissible" tuple makes every other entry
strictly positive.

This module provides the admissibility test, the reversal symmetry, the
period-7 rescaling step with its two monomial conjugators, and the explicit
inner-dimension-6 nonnegative factorization that the step search always
reaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .errors import DimensionError, NegativeEntryError, NotAdmissible, TheoryViolation
from .linalg import Matrix, as_scalar, clear_denominators, is_certificate

SIZE = 7


def _rep7(x: int) -> int:
    """1-based representative of x mod 7 (residue 0 is written 7)."""
    return (x - 1) % 7 + 1


@dataclass(frozen=True)
class CanonicalParams:
    """Six exact rationals parametrizing one canonical 7x7 matrix."""

    a1: Fraction
    a2: Fraction
    a3: Fraction
    b1: Fraction
    b2: Fraction
    b3: Fraction

    @classmethod
    def of(cls, a1, a2, a3, b1, b2, b3) -> "CanonicalParams":
        return cls(*(as_scalar(x) for x in (a1, a2, a3, b1, b2, b3)))

    def astuple(self) -> Tuple[Fraction, ...]:
        return (self.a1, self.a2, self.a3, self.b1, self.b2, self.b3)

    def reversed_tuple(self) -> "CanonicalParams":
        """Mirror tuple (b3, b2, b1, a3, a2, a1)."""
        return CanonicalParams(self.b3, self.b2, self.b1, self.a3, self.a2, self.a1)


class MonomialMatrix:
    """Scaled permutation: row i carries its single positive entry in
    column perm[i] (0-based).  Closed under inversion."""

    __slots__ = ("size", "perm", "scales")

    def __init__(self, perm, scales=None):
        perm = tuple(perm)
        n = len(perm)
        if sorted(perm) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {perm}")
        if scales is None:
            scales = (Fraction(1),) * n
        scales = tuple(as_scalar(s) for s in scales)
        if len(scales) != n:
            raise DimensionError("one scale per row required")
        if any(s <= 0 for s in scales):
            raise NegativeEntryError("monomial scales must be strictly positive")
        self.size = n
        self.perm = perm
        self.scales = scales

    @classmethod
    def _raw(cls, perm: tuple, scales: tuple) -> "MonomialMatrix":
        """A monomial from a permutation and positive Fraction scales that
        the caller built itself, without re-checking them."""
        m = object.__new__(cls)
        m.size, m.perm, m.scales = len(perm), perm, scales
        return m

    @classmethod
    def diagonal(cls, scales) -> "MonomialMatrix":
        scales = tuple(scales)
        return cls(range(len(scales)), scales)

    def to_matrix(self) -> Matrix:
        return self.apply_left(Matrix.identity(self.size))

    def apply_left(self, m: Matrix) -> Matrix:
        """``self.to_matrix() @ m``: row i is row perm[i] of m, scaled."""
        if m.rows != self.size:
            raise DimensionError(f"cannot multiply {(self.size, self.size)} by {m.shape}")
        data = tuple(
            tuple(s * x for x in m.data[p]) for p, s in zip(self.perm, self.scales)
        )
        return Matrix._raw(data, m.rows, m.cols)

    def apply_right(self, m: Matrix) -> Matrix:
        """``m @ self.to_matrix()``: column perm[i] is column i of m, scaled."""
        if m.cols != self.size:
            raise DimensionError(f"cannot multiply {m.shape} by {(self.size, self.size)}")
        data = []
        for row in m.data:
            out = [None] * self.size
            for p, s, x in zip(self.perm, self.scales, row):
                out[p] = s * x
            data.append(tuple(out))
        return Matrix._raw(tuple(data), m.rows, m.cols)

    def __matmul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        """The monomial product ``self @ other``: row i of ``self`` picks row
        perm[i] of ``other``."""
        return MonomialMatrix._raw(
            tuple(other.perm[p] for p in self.perm),
            tuple(s * other.scales[p] for p, s in zip(self.perm, self.scales)),
        )

    def inverse(self) -> "MonomialMatrix":
        inv_perm = [0] * self.size
        inv_scales = [Fraction(1)] * self.size
        for i, j in enumerate(self.perm):
            inv_perm[j] = i
            inv_scales[j] = 1 / self.scales[i]
        return MonomialMatrix(inv_perm, inv_scales)

    def __eq__(self, other):
        if not isinstance(other, MonomialMatrix):
            return NotImplemented
        return self.perm == other.perm and self.scales == other.scales

    def __repr__(self):
        return f"MonomialMatrix(perm={self.perm}, scales={self.scales})"


@dataclass(frozen=True)
class Rank6Certificate:
    """Exact nonnegative factorization target = left @ right with inner
    dimension 6, plus how the search found it."""

    left: Matrix
    right: Matrix
    steps_taken: int
    used_reversal: bool


def base_points(params: CanonicalParams) -> Matrix:
    """The 7x3 matrix of homogeneous base points.

    Rows 1-4 are fixed 0/1 points; rows 5, 6, 7 are (a_i, 1, b_i).
    """
    one, zero = Fraction(1), Fraction(0)
    return Matrix(
        [
            (zero, one, one),
            (zero, zero, one),
            (one, zero, zero),
            (one, one, zero),
            (params.a1, one, params.b1),
            (params.a2, one, params.b2),
            (params.a3, one, params.b3),
        ]
    )


def _cross3(s, t):
    return (
        s[1] * t[2] - s[2] * t[1],
        s[2] * t[0] - s[0] * t[2],
        s[0] * t[1] - s[1] * t[0],
    )


def _integer_dets(params: CanonicalParams):
    """Yield (i, j, det, scale) for every 1-based position of the canonical
    matrix, column by column: det of the base rows (i-1, j-2, j-1), each
    cleared over its own denominator, as an integer, and the product of
    their denominators.  Positive row scales keep every sign."""
    w, d = zip(*map(clear_denominators, base_points(params).data))
    for j in range(1, SIZE + 1):
        s, t = _rep7(j - 2) - 1, _rep7(j - 1) - 1
        c = _cross3(w[s], w[t])
        dc = d[s] * d[t]
        for i in range(1, SIZE + 1):
            k = _rep7(i - 1) - 1
            r = w[k]
            yield i, j, r[0] * c[0] + r[1] * c[1] + r[2] * c[2], d[k] * dc


def canonical_matrix(params: CanonicalParams) -> Matrix:
    """The 7x7 matrix with entry (i, j) = det of base-point rows
    (i-1, j-2, j-1), indices cyclic mod 7.

    Computed per column as a scalar triple product on the cleared integer
    base (the cross product of rows j-2 and j-1 is shared by the whole
    column), then divided by the three row scales.
    """
    out = [[None] * SIZE for _ in range(SIZE)]
    for i, j, x, scale in _integer_dets(params):
        out[i - 1][j - 1] = Fraction(x, scale)
    return Matrix._raw(tuple(map(tuple, out)), SIZE, SIZE)


def is_structural_zero(i: int, j: int) -> bool:
    """True when the (1-based) position (i, j) is a forced zero:
    i congruent to j-1 or j mod 7."""
    return i % 7 == j % 7 or i % 7 == (j - 1) % 7


def is_admissible(params: CanonicalParams) -> bool:
    """True iff every non-structural entry of the canonical matrix is
    strictly positive.  Bails out at the first violation.  Runs on the
    cleared integer base, whose determinants carry the true signs."""
    for i, j, x, _ in _integer_dets(params):
        if is_structural_zero(i, j):
            if x != 0:
                return False
        elif x <= 0:
            return False
    return True


# Row relabeling swaps 1<->6, 2<->5, 3<->4 (fixing 7); column relabeling
# swaps 1<->7, 2<->6, 3<->5 (fixing 4).  Stored 0-based.
_REVERSAL_ROWS = (5, 4, 3, 2, 1, 0, 6)
_REVERSAL_COLS = (6, 5, 4, 3, 2, 1, 0)


def reversal(params: CanonicalParams):
    """Mirror symmetry of the family.

    Returns (mirror, row_perm, col_perm) where mirror = (b3,b2,b1,a3,a2,a1)
    and the unit-scale monomials satisfy
    row_perm @ canonical(mirror) @ col_perm == canonical(params).
    """
    return params.reversed_tuple(), MonomialMatrix(_REVERSAL_ROWS), MonomialMatrix(_REVERSAL_COLS)


def step(params: CanonicalParams):
    """One rescaling step of the family.

    Returns (next_params, q1, q2) with
    canonical(params) == q1 @ canonical(next_params) @ q2 exactly, q1 and
    q2 positive monomial matrices.  The step has period 7.

    Raises NotAdmissible when ``params`` is not admissible (the divisors
    below are then not guaranteed nonzero) and TheoryViolation if the
    stepped tuple unexpectedly fails admissibility.
    """
    if not is_admissible(params):
        raise NotAdmissible(f"step requires an admissible tuple, got {params}")
    return _step(params)


_Q1_PERM = (1, 2, 3, 4, 5, 6, 0)
_Q2_PERM = (6, 0, 1, 2, 3, 4, 5)


def _step(params: CanonicalParams):
    """``step`` for a tuple its caller proved admissible, which makes the
    divisors 1-b3, a1, a2, a3 strictly positive.  Tests only the tuple it
    makes, once, since the next step divides by its entries."""
    a1, a2, a3, b1, b2, b3 = params.astuple()
    c = 1 - b3
    nxt = CanonicalParams(
        (1 - a3 - b3) / c,
        (a1 - a1 * b3 - a3 + a3 * b1) / (a1 - a1 * b3),
        (a2 - a2 * b3 - a3 + a3 * b2) / (a2 - a2 * b3),
        a3,
        a3 / a1,
        a3 / a2,
    )
    if not is_admissible(nxt):
        raise TheoryViolation(f"stepped tuple lost admissibility: {params} -> {nxt}")
    one = Fraction(1)
    q1 = MonomialMatrix._raw(_Q1_PERM, (one, one, 1 / c, 1 / a3, 1 / a3, a1 / a3, a2 / a3))
    q2 = MonomialMatrix._raw(
        _Q2_PERM, (a1 * a2 * c / a3, a2 * c, a3 * c, a3, one, c / a3, a1 * c / a3)
    )
    return nxt, q1, q2


def orbit(params: CanonicalParams, t: int) -> CanonicalParams:
    """t-fold application of the step; the orbit closes after 7 steps."""
    if t < 0:
        raise ValueError("orbit index must be nonnegative")
    current = params
    for _ in range(t):
        current, _, _ = step(current)
    return current


def middle_min_condition(params: CanonicalParams) -> bool:
    """a1+b1 >= a2+b2 and a3+b3 >= a2+b2 (non-strict, so ties qualify)."""
    s1 = params.a1 + params.b1
    s2 = params.a2 + params.b2
    s3 = params.a3 + params.b3
    return s1 >= s2 and s3 >= s2


def direct_factor(params: CanonicalParams) -> Optional[Rank6Certificate]:
    """Explicit 7x6 x 6x7 nonnegative factorization of the canonical
    matrix, available exactly when the middle pair sum is minimal.

    Returns None when the condition fails (which is not an error);
    raises NotAdmissible for a non-admissible tuple.
    """
    if not is_admissible(params):
        raise NotAdmissible("direct_factor requires an admissible tuple")
    if not middle_min_condition(params):
        return None
    vm = canonical_matrix(params)
    left, right = _direct_factor(params, vm)
    if not is_certificate(left, right, vm):
        raise TheoryViolation(f"direct factor failed its verification for {params}")
    return Rank6Certificate(left, right, steps_taken=0, used_reversal=False)


def _direct_factor(params: CanonicalParams, vm: Matrix):
    """(left, right) of ``direct_factor`` for an admissible tuple that meets
    the middle-min condition, ``vm`` its canonical matrix; tests nothing."""
    a1, a2, a3, b1, b2, b3 = params.astuple()
    v = lambda i, j: vm.data[i - 1][j - 1]  # noqa: E731 - 1-based view
    one, zero = Fraction(1), Fraction(0)
    left = (
        (zero, zero, one, v(4, 1) + v(4, 7), v(6, 1), zero),
        (zero, zero, zero, one, a1 - a2 + b1 - b2, one),
        (v(3, 1), zero, zero, one, v(3, 7), zero),
        (v(4, 1), one, zero, zero, v(4, 7), zero),
        (-a2 + a3 - b2 + b3, one, zero, zero, zero, one),
        (v(6, 1), v(3, 1) + v(3, 7), one, zero, zero, zero),
        (zero, v(3, 1), one, v(4, 7), zero, zero),
    )
    right = (
        (one, v(3, 2) / v(3, 1), zero, zero, zero, zero, zero),
        (zero, v(2, 1) / v(3, 1), one, zero, zero, zero, zero),
        (zero, zero, v(1, 3), one, v(6, 5), zero, zero),
        (zero, zero, zero, zero, one, v(5, 7) / v(4, 7), zero),
        (zero, zero, zero, zero, zero, v(6, 5) / v(4, 7), one),
        (v(7, 2), zero, zero, one, zero, zero, v(5, 7)),
    )
    return Matrix._raw(left, SIZE, 6), Matrix._raw(right, 6, SIZE)


MAX_SEARCH_STEPS = 14  # 7 on the tuple itself, then 7 on its mirror


def factor_canonical(params: CanonicalParams) -> Rank6Certificate:
    """Factor the canonical matrix as a 7x6 x 6x7 nonnegative product.

    Walks the step orbit (t = 0..6) until the middle-min condition holds,
    then conjugates the explicit factorization back through the
    accumulated monomials; if a full period never qualifies, retries on
    the mirror tuple and undoes the relabeling.  Termination within these
    14 attempts is guaranteed for admissible input, so exhausting them
    raises TheoryViolation.
    """
    if not is_admissible(params):
        raise NotAdmissible("factor_canonical requires an admissible tuple")
    target = canonical_matrix(params)
    q_left, cert, q_right = _factor_canonical(params, target)
    left, right = q_left.apply_left(cert.left), q_right.apply_right(cert.right)
    if not is_certificate(left, right, target):
        raise TheoryViolation(f"assembled certificate failed verification for {params}")
    return Rank6Certificate(left, right, cert.steps_taken, cert.used_reversal)


def _factor_canonical(params: CanonicalParams, matrix: Matrix):
    """The search of ``factor_canonical`` for a tuple its caller proved
    admissible, ``matrix`` its canonical matrix: (q_left, cert, q_right)
    with ``matrix == q_left @ cert.left @ cert.right @ q_right``, ``cert``
    the direct factorization where the search stopped and the monomials
    every step and the mirror on the way there, composed for the caller
    to apply once."""
    identity = MonomialMatrix._raw(tuple(range(SIZE)), (Fraction(1),) * SIZE)
    for mirrored in (False, True):
        current = params.reversed_tuple() if mirrored else params
        q_left = q_right = identity
        for t in range(7):
            if middle_min_condition(current):
                vm = matrix if current is params else canonical_matrix(current)
                left, right = _direct_factor(current, vm)
                if mirrored:
                    _, row_perm, col_perm = reversal(params)
                    q_left, q_right = row_perm @ q_left, q_right @ col_perm
                return q_left, Rank6Certificate(left, right, t, mirrored), q_right
            if t == 6:
                break  # a seventh step closes the period
            current, q1, q2 = _step(current)
            # matrix == q_left @ canonical(current) @ q_right
            q_left, q_right = q_left @ q1, q2 @ q_right
    raise TheoryViolation(
        f"no factorization within {MAX_SEARCH_STEPS} search steps for "
        f"{params}; this state is impossible for exact admissible input"
    )
