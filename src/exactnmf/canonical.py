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
reaches.  A tuple is tested where it enters: the step keeps a tuple
admissible, so no tuple it makes is tested again.

All of it runs on ints: a tuple is its primitive base rows (A_i, D_i, B_i) =
clear_denominators((a_i, 1, b_i)), monomials are (perm, nums, dens) and factor
entries (num, den) pairs.  The direct factor's core builds its left table
alone.  Assembly scales each left column to a primitive integer vector, the
only Fractions it builds, and reads the right factor off the target and that
left factor by ``_SOLVE``, as ``direct_factor`` does, as integer rows over one
denominator each for the fan pass.  The public functions are checked
converters between these forms and CanonicalParams, MonomialMatrix, Matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Tuple

from .errors import DimensionError, InternalError, NegativeEntryError, NotAdmissible
from .linalg import Matrix, _cross3, as_scalar, clear_denominators, format_value, is_certificate

SIZE = 7
_ZERO, _ONE = Fraction(0), Fraction(1)
_STEP_REQUIRES = "step requires an admissible tuple, got {}"


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

    def __str__(self) -> str:
        return "(" + ", ".join(map(format_value, self.astuple())) + ")"

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
        inv = sorted(range(self.size), key=self.perm.__getitem__)
        data = tuple(tuple(self.scales[i] * row[i] for i in inv) for row in m.data)
        return Matrix._raw(data, m.rows, m.cols)

    def inverse(self) -> "MonomialMatrix":
        inv = sorted(range(self.size), key=self.perm.__getitem__)
        return MonomialMatrix(inv, [1 / self.scales[i] for i in inv])

    def __eq__(self, other):
        if not isinstance(other, MonomialMatrix):
            return NotImplemented
        return self.perm == other.perm and self.scales == other.scales

    def __repr__(self):
        return f"MonomialMatrix(perm={self.perm}, scales=({', '.join(map(format_value, self.scales))}))"


@dataclass(frozen=True)
class Rank6Certificate:
    """Exact nonnegative factorization target = left @ right with inner
    dimension 6, plus how the search found it."""

    left: Matrix
    right: Matrix
    steps_taken: int
    used_reversal: bool


def is_structural_zero(i: int, j: int) -> bool:
    """True when the (1-based) position (i, j) is a forced zero:
    i congruent to j-1 or j mod 7."""
    return i % 7 == j % 7 or i % 7 == (j - 1) % 7


def _rows(params: CanonicalParams):
    """The integer tuple of ``params``: base rows 5, 6, 7 cleared, D_i > 0."""
    p = params.astuple()
    return tuple(tuple(clear_denominators((a, _ONE, b))[0]) for a, b in zip(p[:3], p[3:]))


def _params(rows) -> CanonicalParams:
    return CanonicalParams(*(Fraction(a, d) for a, d, _ in rows), *(Fraction(b, d) for _, d, b in rows))


def _checked(params: CanonicalParams, message: str):
    """(rows, table): the integer tuple of ``params`` and its ``_admissible``
    table; NotAdmissible(message), ``{}`` filled by ``params``, if none."""
    rows = _rows(params)
    table = _admissible(rows)
    if table is None:
        raise NotAdmissible(message.format(params))
    return rows, table


# Base rows 1-4; per column j, the rows (s, t) of its cross product and (i, k)
# for each row i off the pattern, k its base row, all 0-based.
_FIXED_ROWS = ((0, 1, 1), (0, 0, 1), (1, 0, 0), (1, 1, 0))
_PLAN = tuple((_rep7(j - 2) - 1, _rep7(j - 1) - 1, tuple(
    (i - 1, _rep7(i - 1) - 1) for i in range(1, SIZE + 1) if not is_structural_zero(i, j)
)) for j in range(1, SIZE + 1))


def _dets(rows):
    """The canonical matrix as (num, den) pairs: det(base rows i-1, j-2, j-1)
    over their D's, which keeps signs.  A structural zero repeats a row."""
    w = _FIXED_ROWS + rows
    d = (1, 1, 1, 1) + tuple(r[1] for r in rows)
    out = [[(0, 1)] * SIZE for _ in range(SIZE)]
    for j, (s, t, plan) in enumerate(_PLAN):
        c, dc = _cross3(w[s], w[t]), d[s] * d[t]
        for i, k in plan:
            r = w[k]
            out[i][j] = (r[0] * c[0] + r[1] * c[1] + r[2] * c[2], d[k] * dc)
    return out


def _admissible(rows):
    """``_dets(rows)`` if its 35 entries off the pattern are positive, else None."""
    table = _dets(rows)
    return table if sum(n > 0 for row in table for n, _ in row) == SIZE * (SIZE - 2) else None


def _matrix(table) -> Matrix:
    """The Fraction matrix of a table of (num, den) pairs, den > 0."""
    data = tuple(tuple(Fraction(n, d) if n else _ZERO for n, d in row) for row in table)
    return Matrix._raw(data, len(data), len(data[0]))


def canonical_matrix(params: CanonicalParams) -> Matrix:
    """The 7x7 matrix with entry (i, j) = det of base-point rows
    (i-1, j-2, j-1), indices cyclic mod 7."""
    return _matrix(_dets(_rows(params)))


def is_admissible(params: CanonicalParams) -> bool:
    """True iff every non-structural entry of the canonical matrix is
    strictly positive."""
    return _admissible(_rows(params)) is not None


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
    below are then not guaranteed nonzero).
    """
    nxt, *qs = _step(_checked(params, _STEP_REQUIRES)[0])
    return (_params(nxt), *(MonomialMatrix._raw(p, tuple(map(Fraction, n, d))) for p, n, d in qs))


def _compose(a, b):
    """a @ b for monomials (perm, nums, dens): row i of a picks row perm[i] of b."""
    (pa, na, da), (pb, nb, db) = a, b
    return (tuple(pb[p] for p in pa), tuple(n * nb[p] for p, n in zip(pa, na)),
            tuple(d * db[p] for p, d in zip(pa, da)))


def _primitive(x, y, z):
    g = gcd(x, y, z)
    return x // g, y // g, z // g


def _step(rows):
    """``step`` on an admissible tuple (so C = D3 - B3 and A1, A2, A3 are
    positive): (next tuple, q1, q2).  Next row i is (a_i', 1, b_i') times
    C D3 (i = 1) or A_{i-1} C D3, made primitive.  Tests nothing: the step
    maps an admissible tuple to an admissible one."""
    (A1, D1, B1), (A2, D2, B2), (A3, D3, B3) = rows
    C = D3 - B3
    nxt = (
        _primitive((D3 - A3 - B3) * D3, C * D3, A3 * C),
        _primitive((A1 * C - A3 * (D1 - B1)) * D3, A1 * C * D3, A3 * D1 * C),
        _primitive((A2 * C - A3 * (D2 - B2)) * D3, A2 * C * D3, A3 * D2 * C),
    )
    # q1 = (1, 1, 1/c, 1/a3, 1/a3, a1/a3, a2/a3) and
    # q2 = (a1 a2 c/a3, a2 c, a3 c, a3, 1, c/a3, a1 c/a3) for c = C / D3.
    q1 = ((1, 2, 3, 4, 5, 6, 0), (1, 1, D3, D3, D3, A1 * D3, A2 * D3),
          (1, 1, C, A3, A3, D1 * A3, D2 * A3))
    q2 = ((6, 0, 1, 2, 3, 4, 5), (A1 * A2 * C, A2 * C, A3 * C, A3, 1, C, A1 * C),
          (D1 * D2 * A3, D2 * D3, D3 * D3, D3, 1, A3, D1 * A3))
    return nxt, q1, q2


def orbit(params: CanonicalParams, t: int) -> CanonicalParams:
    """t-fold application of the step; the orbit closes after 7 steps.  One
    admissibility test, as ``step``'s, of ``params`` alone."""
    if t < 0:
        raise ValueError("orbit index must be nonnegative")
    if t == 0:
        return params
    rows, _ = _checked(params, _STEP_REQUIRES)
    for _ in range(t):
        rows = _step(rows)[0]
    return _params(rows)


def middle_min_condition(params: CanonicalParams) -> bool:
    """a1+b1 >= a2+b2 and a3+b3 >= a2+b2 (non-strict, so ties qualify)."""
    return _middle_min(_rows(params))


def _middle_min(rows) -> bool:
    (A1, D1, B1), (A2, D2, B2), (A3, D3, B3) = rows
    s2 = A2 + B2
    return (A1 + B1) * D2 >= s2 * D1 and (A3 + B3) * D2 >= s2 * D3


def direct_factor(params: CanonicalParams) -> Optional[Rank6Certificate]:
    """Explicit 7x6 x 6x7 nonnegative factorization of the canonical
    matrix, available exactly when the middle pair sum is minimal.

    Returns None when the condition fails (which is not an error);
    raises NotAdmissible for a non-admissible tuple.
    """
    rows, table = _checked(params, "direct_factor requires an admissible tuple")
    if not _middle_min(rows):
        return None
    left = _direct_factor(rows, table)
    right = [[(0, 1)] * SIZE for _ in range(SIZE - 1)]
    for t, pairs in enumerate(_SOLVE):
        for c, p in pairs:
            (x, y), (u, w) = table[p][t], left[p][c]
            right[c][t] = (x * w, y * u)
    left, right = _matrix(left), _matrix(right)
    if not is_certificate(left, right, _matrix(table)):
        raise InternalError(f"direct factor failed its verification for {params}")
    return Rank6Certificate(left, right, steps_taken=0, used_reversal=False)


# Per right-table column t, its two nonzero rows c, each with a left-table row
# p nonzero in c, not in the other: right[c][t] = (left @ right)[p][t] / left[p][c].
_SOLVE = (((0, 2), (5, 1)), ((0, 2), (1, 6)), ((1, 3), (2, 0)), ((2, 0), (5, 1)),
          ((2, 5), (3, 1)), ((3, 6), (4, 3)), ((4, 2), (5, 4)))


def _direct_factor(rows, vm):
    """The left table of ``direct_factor``, (num, den) pairs with den > 0,
    for an admissible middle-min tuple; tests nothing."""
    (A1, D1, B1), (A2, D2, B2), (A3, D3, B3) = rows
    v = lambda i, j: vm[i - 1][j - 1]  # noqa: E731 - 1-based view
    one, zero, s2 = (1, 1), (0, 1), A2 + B2
    # v(i, j) is over R_i K_j, R_3 = R_4 = 1, K_1 = D2 D3, K_7 = D1 D2: sums over D1 D2 D3
    return (
        (zero, zero, one, (v(4, 1)[0] * D1 + v(4, 7)[0] * D3, D1 * D2 * D3), v(6, 1), zero),  # v41 + v47
        (zero, zero, zero, one, ((A1 + B1) * D2 - s2 * D1, D1 * D2), one),  # a1 - a2 + b1 - b2
        (v(3, 1), zero, zero, one, v(3, 7), zero),
        (v(4, 1), one, zero, zero, v(4, 7), zero),
        (((A3 + B3) * D2 - s2 * D3, D2 * D3), one, zero, zero, zero, one),  # a3 - a2 + b3 - b2
        (v(6, 1), (v(3, 1)[0] * D1 + v(3, 7)[0] * D3, D1 * D2 * D3), one, zero, zero, zero),  # v31 + v37
        (zero, v(3, 1), one, v(4, 7), zero, zero),
    )


def _assemble(q_left, left, q_right, entry):
    """(left, lines): q_left @ left @ D for the direct factor's left table
    and the positive diagonal D that makes each left column a primitive
    integer vector w // gcd(w), and as integer rows (y, e), row == y / e,
    the R with left @ R the target, entry(i, j) = (num, den) with den > 0.
    R is a right table permuted by q_right, so ``_SOLVE`` reads it off."""
    perm, nums, dens = q_left
    rows = [[(n * x, d * y) if x else (0, 1) for x, y in left[p]] for p, n, d in zip(perm, nums, dens)]
    columns = []
    for col in zip(*rows):
        big = lcm(*(y for x, y in col if x))
        w = [x * (big // y) if x else 0 for x, y in col]
        g = gcd(*w)
        columns.append([v // g for v in w])
    at = sorted(range(len(perm)), key=perm.__getitem__)  # left table row p is row at[p]
    cols = sorted(range(len(q_right)), key=q_right.__getitem__)  # column j is table column cols[j]
    terms = [[(0, 1)] * len(cols) for _ in columns]
    for j, t in enumerate(cols):
        for c, p in _SOLVE[t]:
            n, d = entry(at[p], j)
            terms[c][j] = (n, d * columns[c][at[p]])
    es = [lcm(*(d for _, d in row)) for row in terms]
    lines = [([n * (e // d) for n, d in row], e) for row, e in zip(terms, es)]
    left = tuple(tuple(Fraction(v) if v else _ZERO for v in row) for row in zip(*columns))
    return Matrix._raw(left, len(rows), len(columns)), lines


MAX_SEARCH_STEPS = 14  # 7 on the tuple itself, then 7 on its mirror
_UNIT = (tuple(range(SIZE)), (1,) * SIZE, (1,) * SIZE)


def factor_canonical(params: CanonicalParams) -> Rank6Certificate:
    """Factor the canonical matrix as a 7x6 x 6x7 nonnegative product.

    Walks the step orbit (t = 0..6) until the middle-min condition holds,
    then conjugates the explicit factorization back through the
    accumulated monomials; if a full period never qualifies, retries on
    the mirror tuple and undoes the relabeling.  Termination within these
    14 attempts is guaranteed for admissible input, so exhausting them
    raises InternalError.
    """
    rows, table = _checked(params, "factor_canonical requires an admissible tuple")
    q_left, left, q_right, steps, mirrored = _factor_canonical(rows, table)
    left, lines = _assemble(q_left, left, q_right, lambda i, j: table[i][j])
    right = _matrix([[(x, e) for x in y] for y, e in lines])
    if not is_certificate(left, right, _matrix(table)):
        raise InternalError(f"assembled certificate failed verification for {params}")
    return Rank6Certificate(left, right, steps, mirrored)


def _factor_canonical(rows, table):
    """The search of ``factor_canonical`` on an admissible integer tuple and
    its ``_admissible`` table: (q_left, left, q_right, steps, mirrored),
    canonical(rows) == q_left @ left @ right @ Q for the direct factor's
    tables where it stops, the step and mirror monomials composed, q_right
    Q's permutation.  Tests nothing; a stop off ``rows`` builds its own table."""
    for mirrored in (False, True):
        # The mirror of rows (A_i, D_i, B_i), i = 1, 2, 3 is (B_i, D_i, A_i), i = 3, 2, 1.
        current = tuple(r[::-1] for r in reversed(rows)) if mirrored else rows
        q_left, q_right = _UNIT, _UNIT[0]
        for t in range(7):
            if _middle_min(current):
                if mirrored:
                    q_left = _compose((_REVERSAL_ROWS,) + _UNIT[1:], q_left)
                    q_right = tuple(_REVERSAL_COLS[p] for p in q_right)
                vm = table if current is rows else _dets(current)
                return q_left, _direct_factor(current, vm), q_right, t, mirrored
            current, q1, q2 = _step(current)
            # canonical(rows) == q_left @ canonical(current) @ Q
            q_left, q_right = _compose(q_left, q1), tuple(q_right[p] for p in q2[0])
    raise InternalError(
        f"no factorization within {MAX_SEARCH_STEPS} search steps for "
        f"{_params(rows)}; this state is impossible for exact admissible input"
    )
