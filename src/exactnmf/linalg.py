"""Exact rational dense matrices and elimination-based linear algebra.

Every entry is a ``fractions.Fraction``; there is no floating point
anywhere.  Inside, products and eliminations run on Python ints: each
row or column is cleared to integer numerators over one common
denominator, products are integer dot products, and rank and solve use
fraction-free (Bareiss) elimination.  Each matrix's columns are cleared
once, by :func:`cleared_columns`, for every kernel that reads them.
:func:`is_product` clears its own operands and keeps nothing: it sums each
target row from the right rows its left row's nonzeros select, over one
denominator (on the transposes when the right factor is the sparser), and
cross-multiplies, so it never builds a Fraction.  Pivoting is
deterministic (first nonzero), so ranks and solutions are reproducible
byte for byte across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import mul
from typing import Iterable, Sequence, Union

from .errors import DimensionError

ScalarLike = Union[Fraction, int, str]


def as_scalar(value) -> Fraction:
    """Coerce a value to an exact rational.

    Accepts Fraction, int, "p/q" / decimal strings, and floats (a float is
    converted to its exact binary value).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not matrix entries")
    if isinstance(value, (int, str, float)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class Matrix:
    """Immutable dense matrix of exact rationals, row-major.  ``rank`` and
    ``cleared_columns`` keep their results in slots: each runs once."""

    __slots__ = ("rows", "cols", "data", "_rank", "_columns")

    def __init__(self, entries: Iterable[Iterable[ScalarLike]]):
        data = tuple(tuple(as_scalar(x) for x in row) for row in entries)
        if not data:
            raise DimensionError("use Matrix.zeros(rows, cols) for empty shapes")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise DimensionError("rows have unequal lengths")
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):
        """Copies and unpickled matrices start with nothing kept in slots."""
        return Matrix._raw, (self.data, self.rows, self.cols)

    @classmethod
    def _raw(cls, data: tuple, rows: int, cols: int) -> "Matrix":
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "data", data)
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        if rows < 0 or cols < 0:
            raise DimensionError("negative dimensions")
        zero = Fraction(0)
        return cls._raw(tuple((zero,) * cols for _ in range(rows)), rows, cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        one, zero = Fraction(1), Fraction(0)
        return cls._raw(
            tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)),
            n,
            n,
        )

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[ScalarLike]]) -> "Matrix":
        if not columns:
            raise DimensionError("use Matrix.zeros(rows, 0) for empty shapes")
        return cls(zip(*columns))

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return self.data[i][j]

    def row(self, i: int) -> tuple:
        return self.data[i]

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.data)

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def tolist(self):
        return [list(row) for row in self.data]

    def transpose(self) -> "Matrix":
        return Matrix._raw(tuple(zip(*self.data)), self.cols, self.rows) \
            if self.rows and self.cols else Matrix.zeros(self.cols, self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self.data == other.data

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.shape} by {other.shape}")
        if self.rows == 0 or other.cols == 0 or self.cols == 0:
            return Matrix.zeros(self.rows, other.cols)
        cols = cleared_columns(other)
        out = tuple(
            tuple(Fraction(sum(map(mul, a, b)), da * db) for b, db in cols)
            for a, da in map(clear_denominators, self.data)
        )
        return Matrix._raw(out, self.rows, other.cols)

    # Entries are normalized Fractions, so an entry's sign is its numerator's.
    def is_nonnegative(self) -> bool:
        return all(x.numerator >= 0 for row in self.data for x in row)

    def first_negative_entry(self):
        """Return ((i, j), value) of the first negative entry, or None."""
        for i, row in enumerate(self.data):
            for j, x in enumerate(row):
                if x.numerator < 0:
                    return (i, j), x
        return None

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"


@dataclass(frozen=True)
class Inconsistency:
    """Report that a linear system has no solution.

    ``row`` is the 0-based index of an input equation that reduced to
    0 = nonzero during elimination.
    """

    row: int


def clear_denominators(line):
    """Clear denominators: (integer numerators, positive common
    denominator) of a sequence of Fractions.  The numerators are the
    entries times that denominator, so they keep every entry's sign."""
    den = lcm(*[x.denominator for x in line])
    return [x.numerator * (den // x.denominator) for x in line], den


def _rows_combine(left_rows, right_rows, target_rows) -> bool:
    """Each target row equals its left row times the right rows: the
    integer sum, over one denominator, of the rows its nonzeros select."""
    cleared = [clear_denominators(row) for row in right_rows]
    for a_row, t_row in zip(left_rows, target_rows):
        terms = [(x, cleared[k]) for k, x in enumerate(a_row) if x]
        if not terms:
            if any(t_row):
                return False
            continue
        den = lcm(*[x.denominator * d for x, (_, d) in terms])
        (x, (b, d)), *rest = terms
        c = x.numerator * (den // (x.denominator * d))
        acc = [c * y for y in b]
        for x, (b, d) in rest:
            c = x.numerator * (den // (x.denominator * d))
            acc = [s + c * y for s, y in zip(acc, b)]
        for s, t in zip(acc, t_row):
            if s * t.denominator != t.numerator * den:
                return False
    return True


def is_product(left: Matrix, right: Matrix, target: Matrix) -> bool:
    """Exactly ``left @ right == target``, reading only the nonzeros of one
    factor: the left one, or the right one (on the transposes) when it has
    fewer per product entry.  Mismatched shapes give False; an inner
    dimension of 0 compares the target against zeros."""
    if left.cols != right.rows or target.shape != (left.rows, right.cols):
        return False
    if left.cols == 0:
        return not any(x for row in target.data for x in row)
    nnz_left, nnz_right = (sum(map(bool, chain.from_iterable(m.data))) for m in (left, right))
    if nnz_right * left.rows < nnz_left * right.cols:
        return _rows_combine(zip(*right.data), zip(*left.data), zip(*target.data))
    return _rows_combine(left.data, right.data, target.data)


def is_certificate(left: Matrix, right: Matrix, target: Matrix) -> bool:
    """Both factors nonnegative and ``left @ right == target`` exactly."""
    return left.is_nonnegative() and right.is_nonnegative() and is_product(left, right, target)


def first_difference(a: Matrix, b: Matrix):
    """(i, j) of the first entry, in row-major order, where two matrices of
    one shape disagree, or None when they are equal."""
    for i, (row_a, row_b) in enumerate(zip(a.data, b.data)):
        if row_a != row_b:
            return i, next(j for j, (x, y) in enumerate(zip(row_a, row_b)) if x != y)
    return None


def cleared_columns(m: Matrix):
    """``clear_denominators`` of each column, kept on the matrix: readers
    must not mutate it.  Entries of one column (one vertex, say) tend to
    share denominators, and column scaling keeps elimination's zeros."""
    cols = getattr(m, "_columns", None)
    if cols is None:
        cols = tuple(map(clear_denominators, zip(*m.data) if m.rows else [()] * m.cols))
        object.__setattr__(m, "_columns", cols)
    return cols


def _eliminate(columns):
    """Fraction-free (Bareiss) row reduction of the integer rows of cleared
    columns (c, d), into fresh lists.

    Each reduced row is a nonzero multiple of the row that rational
    Gaussian elimination with the same first-nonzero pivots produces, so
    pivot columns and row origins are the same; every division is exact.
    Returns (rows, pivot_columns, row_origins) where row_origins maps the
    final row position to the original row index.
    """
    data = [list(row) for row in zip(*(c for c, _ in columns))]
    rows = len(data)
    cols = len(data[0]) if rows else 0
    origins = list(range(rows))
    pivot_cols = []
    r = 0
    prev = 1
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if data[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            data[r], data[pivot] = data[pivot], data[r]
            origins[r], origins[pivot] = origins[pivot], origins[r]
        pivot_cols.append(c)
        row_r = data[r]
        lead = row_r[c]
        for i in range(r + 1, rows):
            row_i = data[i]
            f = row_i[c]
            row_i[c] = 0
            for j in range(c + 1, cols):
                row_i[j] = (lead * row_i[j] - f * row_r[j]) // prev
        prev = lead
        r += 1
        if r == rows:
            break
    return data, pivot_cols, origins


def rank(m: Matrix) -> int:
    """Exact rank by fraction-free Gaussian elimination, memoized on the
    matrix: later calls on the same matrix read it back."""
    r = getattr(m, "_rank", None)
    if r is None:
        r = 0
        if m.rows and m.cols:
            r = len(_eliminate(cleared_columns(m))[1])
        object.__setattr__(m, "_rank", r)
    return r


def solve(a: Matrix, b: Sequence[ScalarLike]):
    """Solve a x = b exactly.

    Returns one solution (free variables set to 0) as a list of Fractions,
    or an :class:`Inconsistency` naming an input row that cannot be
    satisfied.  Pivoting is first-nonzero, so the returned solution is
    deterministic.
    """
    rhs = [as_scalar(x) for x in b]
    if len(rhs) != a.rows:
        raise DimensionError(f"matrix has {a.rows} rows but rhs has {len(rhs)}")
    if a.rows == 0:
        return [Fraction(0)] * a.cols
    columns = (*cleared_columns(a), clear_denominators(rhs))
    work, pivot_cols, origins = _eliminate(columns)
    n = a.cols
    # A pivot in the appended column means some equation reduced to 0 = c.
    if n in pivot_cols:
        bad = len(pivot_cols) - 1
        return Inconsistency(row=origins[bad])
    # work solves for y_j = x_j * d_n / d_j, columns[j] = (c_j, d_j).  The
    # last pivot d is the determinant of the pivot minor, so by Cramer's
    # rule d * y is an integer vector and each division is exact.
    d = work[len(pivot_cols) - 1][pivot_cols[-1]] if pivot_cols else 1
    numer = [0] * n
    for r in range(len(pivot_cols) - 1, -1, -1):
        c = pivot_cols[r]
        row = work[r]
        s = d * row[n] - sum(map(mul, row[c + 1 : n], numer[c + 1 :]))
        numer[c] = s // row[c]
    return [Fraction(y * dj, d * columns[n][1]) for y, (_, dj) in zip(numer, columns)]


def insert_zero_lines(m: Matrix, zero_rows, zero_cols, rows: int, cols: int) -> Matrix:
    """The rows x cols matrix that is zero on the rows ``zero_rows`` and
    the columns ``zero_cols`` and holds the entries of ``m``, in order,
    everywhere else: the inverse of stripping those lines."""
    if not zero_rows and not zero_cols:
        return m
    zero = Fraction(0)
    zero_rows, zero_cols = set(zero_rows), set(zero_cols)
    kept_cols = [j for j in range(cols) if j not in zero_cols]
    source = iter(m.data)
    out = []
    for i in range(rows):
        if i in zero_rows:
            out.append((zero,) * cols)
            continue
        line = [zero] * cols
        for j, x in zip(kept_cols, next(source)):
            line[j] = x
        out.append(tuple(line))
    return Matrix._raw(tuple(out), rows, cols)


def block_diag(blocks: Sequence[Matrix]) -> Matrix:
    """Block-diagonal assembly; off-diagonal blocks are zero."""
    total_rows = sum(b.rows for b in blocks)
    total_cols = sum(b.cols for b in blocks)
    out = [[Fraction(0)] * total_cols for _ in range(total_rows)]
    r0 = c0 = 0
    for b in blocks:
        for i, row in enumerate(b.data):
            out[r0 + i][c0 : c0 + b.cols] = list(row)
        r0 += b.rows
        c0 += b.cols
    if total_rows == 0 or total_cols == 0:
        return Matrix.zeros(total_rows, total_cols)
    return Matrix._raw(tuple(map(tuple, out)), total_rows, total_cols)
