"""Exact rational dense matrices and elimination-based linear algebra.

Every entry is a ``fractions.Fraction``; there is no floating point
anywhere.  Inside, products and eliminations run on Python ints.  Rank
and solve use fraction-free (Bareiss) elimination on each matrix's
columns, cleared once to integers over a common denominator by
:func:`cleared_columns`.  A matrix keeps the pivot columns of its
elimination (:func:`pivot_columns`): its rank is their count, and the
section and segment cores take their basis from them.  ``@`` and the exact check
:func:`product_difference` share one sparse integer row sum,
:func:`_product_rows`, which can also report each factor's first negative
entry; the check cross-multiplies only where the sum is nonzero, building
a Fraction only for the entry it reports.  The passes that read every entry
(that kernel, the clearing, the sign scans and the driver's input scan) read
each Fraction's ``_numerator`` and ``_denominator`` slots, where CPython's
Fraction has kept its lowest terms from 3.6 through 3.13: its ``numerator``,
``denominator`` and ``__bool__`` are Python calls.  String entries may ask
for at most ``MAX_DIGITS`` digits, and messages print values with
:func:`format_value`, which never asks ``str`` for more.  Pivots are the
first nonzeros, so ranks and solutions are reproducible byte for byte.
"""

from __future__ import annotations

from collections.abc import Mapping, Set
from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, lcm
from numbers import Rational
from operator import mul
from typing import Iterable, Sequence, Union

from .errors import DimensionError, ParseError

ScalarLike = Union[Fraction, int, str]
_NOT_ROWS = (str, bytes, bytearray, Mapping, Set)  # iterable, but not a row of entries


# CPython's default limit on int <-> str conversion.  A token within it
# builds integers of at most this many digits.
MAX_DIGITS = 4300
SAFE_BITS = 14_000  # p and q of this many bits together have at most 4,217 digits


def _check_token_size(text: str) -> str:
    """Return ``text``, or raise ParseError when the numeric token would
    need more than MAX_DIGITS digits: its digit count plus the size of its
    exponent (``1e-5`` has 1 + 5).  Nothing is converted before the check."""
    if len(text) <= MAX_DIGITS and "e" not in text and "E" not in text:
        return text  # no exponent, and no more digits than characters
    mantissa, _, exponent = text.lower().partition("e")
    size = sum(c.isdecimal() for c in mantissa)
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if exponent.isdecimal():
        # Past six digits the exponent alone is over the limit, so its
        # first six digits decide without converting the rest.
        size += int(exponent[:6])
    if size > MAX_DIGITS:
        raise ParseError(
            f"numeric token {text[:30]!r} asks for more than {MAX_DIGITS} digits"
        )
    return text


def _read_token(text: str) -> Fraction:
    """``Fraction(text)`` for a token of at most MAX_DIGITS digits; a string
    that is no number is a ParseError showing it as _check_token_size does."""
    try:
        return Fraction(_check_token_size(text))
    except ValueError:
        reason = "invalid literal"
    except ZeroDivisionError:
        reason = "zero denominator"
    raise ParseError(f"cannot parse {text[:30]!r} as a rational: {reason}")


def _digits(n: int) -> int:
    """Decimal digits of |n|, counted without str(), which refuses over 4,300."""
    n = abs(n)
    k = max(1, int((n.bit_length() - 1) * 0.30102999566))  # at most the count
    while n >= 10**k:
        k += 1
    return k


def token_digits(x: Fraction) -> int:
    """Digits of p and q together in the token "p/q" of ``x`` when over
    MAX_DIGITS, else 0."""
    p, q = int(x.numerator), int(x.denominator)  # NumPy integers have no bit_length
    if p.bit_length() + q.bit_length() <= SAFE_BITS:
        return 0
    digits = _digits(p) + (_digits(q) if q > 1 else 0)
    return digits if digits > MAX_DIGITS else 0


def format_value(x) -> str:
    """A value for a message: a rational as "p" or "p/q" when its token fits
    in MAX_DIGITS digits, else a stand-in naming its digit count; anything
    else as its repr."""
    if isinstance(x, bool) or not isinstance(x, Rational):
        return repr(x)
    digits = token_digits(x)
    return f"<number of {digits} digits>" if digits else str(Fraction(x))


def as_scalar(value) -> Fraction:
    """Coerce a value to an exact rational.

    Accepts Fraction, int and other rationals (NumPy integers, say), "p/q"
    / decimal strings of at most MAX_DIGITS digits (any other string is a
    ParseError), and finite floats (a float is converted to its exact binary
    value; NaN and the infinities are a ParseError).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not matrix entries")
    if isinstance(value, str):
        return _read_token(value)
    if isinstance(value, float) and not isfinite(value):
        raise ParseError(f"cannot parse {float(value)!r} as a rational: not finite")
    if isinstance(value, (int, float)):
        return Fraction(value)
    if isinstance(value, Rational):  # as Python ints: NumPy integers wrap around
        return Fraction(int(value.numerator), int(value.denominator))
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class Matrix:
    """Immutable dense matrix of exact rationals, row-major.  It keeps its
    pivot columns (``pivot_columns``; ``rank`` is their count) and its
    cleared columns (``cleared_columns``) in slots: each is computed once."""

    __slots__ = ("rows", "cols", "data", "_pivots", "_columns")

    def __init__(self, entries: Iterable[Iterable[ScalarLike]]):
        data = []
        for row in entries:  # lists and tuples skip the ABC tests, which cost more than the row
            kind = type(row)
            if kind not in (list, tuple) and (isinstance(row, _NOT_ROWS) or not hasattr(row, "__iter__")):
                raise DimensionError(f"matrix input must be two-dimensional, not rows of {kind.__name__}")
            data.append(tuple([x if type(x) is Fraction else as_scalar(x) for x in row]))
        if not data:
            raise DimensionError("use Matrix.zeros(rows, cols) for empty shapes")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise DimensionError("rows have unequal lengths")
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "data", tuple(data))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):
        """Copies and unpickled matrices start with nothing kept in slots."""
        return Matrix._raw, (self.data, self.rows, self.cols)

    @classmethod
    def _raw(cls, data: tuple, rows: int, cols: int, columns=None) -> "Matrix":
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "data", data)
        object.__setattr__(m, "_columns", columns)  # None, or as ``cleared_columns`` keeps them
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
        rows = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        return cls._raw(rows, n, n)

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
        zero = (Fraction(0),) * other.cols
        out = tuple(
            zero if sums is None else tuple(Fraction(s, sums[1]) for s in sums[0])
            for sums in _product_rows(self, other)
        )
        return Matrix._raw(out, self.rows, other.cols)

    # Entries are normalized Fractions, so an entry's sign is its numerator's.
    def is_nonnegative(self) -> bool:
        return all(x._numerator >= 0 for row in self.data for x in row)

    def first_negative_entry(self, start: int = 0):
        """((i, j), value) of the first negative entry, row-major from row ``start``, or None."""
        return next((((i, j), x) for i in range(start, self.rows)
                     for j, x in enumerate(self.data[i]) if x._numerator < 0), None)

    def __repr__(self):
        body = "; ".join(" ".join(map(format_value, row)) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"


@dataclass(frozen=True)
class Inconsistency:
    """Report that a linear system has no solution.

    ``row`` is the 0-based index of an input equation that reduced to
    0 = nonzero during elimination.
    """

    row: int


def _cross3(s, t):
    return (s[1] * t[2] - s[2] * t[1], s[2] * t[0] - s[0] * t[2], s[0] * t[1] - s[1] * t[0])


def clear_denominators(line):
    """Clear denominators: (integer numerators, positive common
    denominator) of a sequence of Fractions.  The numerators are the
    entries times that denominator, so they keep every entry's sign."""
    den = lcm(*[x._denominator for x in line])
    return [x._numerator * (den // x._denominator) for x in line], den


def _product_rows(left: Matrix, right: Matrix, signs=None):
    """Each row of ``left @ right`` as (integer sums, positive denominator),
    or None for a zero left row.  Each right row is cleared once over its
    nonzeros, as ([(j, numerator)], den); a left row sums the rows its
    nonzeros select, so the cost is the number of nonzero term pairs.  Given
    ``signs``, it puts there each factor's first negative entry, row-major, as
    it reads the nonzeros (clearing keeps signs): right's at [1], left's at [0]."""
    cleared = []
    for i, row in enumerate(right.data):
        terms = [(j, x) for j, x in enumerate(row) if x._numerator]
        den = lcm(*[x._denominator for _, x in terms])
        cleared.append(([(j, x._numerator * (den // x._denominator)) for j, x in terms], den))
        if signs is not None and signs[1] is None and any(y < 0 for _, y in cleared[i][0]):
            signs[1] = right.first_negative_entry(i)
    for i, a_row in enumerate(left.data):
        terms = [(x, cleared[k]) for k, x in enumerate(a_row) if x._numerator]
        if not terms:
            yield None
            continue
        den = lcm(*[x._denominator * d for x, (_, d) in terms])
        acc = [0] * right.cols
        for x, (b, d) in terms:
            c = x._numerator * (den // (x._denominator * d))
            if c < 0 and signs is not None and signs[0] is None:
                signs[0] = left.first_negative_entry(i)
            for j, y in b:
                acc[j] += c * y
        yield acc, den


def product_difference(left: Matrix, right: Matrix, target: Matrix, signs=None):
    """(i, j, value) of the first row-major entry where ``left @ right``
    differs from ``target``, with ``value`` the product's entry there; None
    when they are equal or the shapes disagree.  Given ``signs`` = [None, None],
    it fills it as ``_product_rows`` does, reading the rows it does not sum
    (after a mismatch, or all when the shapes disagree) for signs alone."""
    if target.shape != (left.rows, right.cols) or left.cols != right.rows:
        if signs is not None:
            signs[:] = left.first_negative_entry(), right.first_negative_entry()
        return None
    for i, (sums, t_row) in enumerate(zip(_product_rows(left, right, signs), target.data)):
        if sums is None and not any([t._numerator for t in t_row]):
            continue
        acc, den = sums or ((0,) * len(t_row), 1)
        for s, t in zip(acc, t_row):  # where s is 0, t must be: no cross-multiplication
            if s * t._denominator != t._numerator * den if s else t._numerator:
                break
        else:
            continue
        j = next(j for j, (s, t) in enumerate(zip(acc, t_row))
                 if (s * t._denominator != t._numerator * den if s else t._numerator))
        if signs is not None and signs[0] is None:
            signs[0] = left.first_negative_entry(i + 1)
        return i, j, Fraction(acc[j], den)
    return None


def is_product(left: Matrix, right: Matrix, target: Matrix) -> bool:
    """Exactly ``left @ right == target``; mismatched shapes give False."""
    return (left.cols == right.rows and target.shape == (left.rows, right.cols)
            and product_difference(left, right, target) is None)


def is_certificate(left: Matrix, right: Matrix, target: Matrix) -> bool:
    """Both factors nonnegative and ``left @ right == target`` exactly."""
    return left.is_nonnegative() and right.is_nonnegative() and is_product(left, right, target)


def cleared_columns(m: Matrix):
    """Each column as (integer c, positive d) with column == c / d, kept on the
    matrix: readers must not mutate it.  Entries of one column (one vertex,
    say) tend to share denominators, and column scaling keeps elimination's zeros."""
    cols = getattr(m, "_columns", None)
    if cols is None:
        cols = tuple(map(clear_denominators, zip(*m.data) if m.rows else [()] * m.cols))
        object.__setattr__(m, "_columns", cols)
    return cols


def _eliminate(columns, cap=None):
    """Fraction-free (Bareiss) row reduction of the integer rows of cleared
    columns (c, d), into fresh lists, stopping after ``cap`` pivots.

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
        if r == rows or r == cap:
            break
    return data, pivot_cols, origins


def pivot_columns(m: Matrix, cap=None) -> tuple:
    """The pivot columns of fraction-free Gaussian elimination, memoized on
    the matrix: the first nonzero column, then each column off the span of
    the columns before it.  With a ``cap``, the first ``cap`` of them from at
    most ``cap`` pivots, kept only if fewer."""
    pivots = getattr(m, "_pivots", None)
    if pivots is None:
        pivots = tuple(_eliminate(cleared_columns(m), cap)[1]) if m.rows and m.cols else ()
        if cap is None or len(pivots) < cap:
            object.__setattr__(m, "_pivots", pivots)
    return pivots[:cap]


def rank(m: Matrix, cap=None) -> int:
    """Exact rank, the number of pivot columns; with a ``cap``, min(rank, cap)."""
    return len(pivot_columns(m, cap))


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
    """Block-diagonal assembly; off-diagonal blocks are zero, and a single
    block is returned as it is."""
    if len(blocks) == 1:
        return blocks[0]
    zero, cols = Fraction(0), sum(b.cols for b in blocks)
    out, c0 = [], 0
    for b in blocks:
        out += [(zero,) * c0 + tuple(row) + (zero,) * (cols - c0 - b.cols) for row in b.data]
        c0 += b.cols
    return Matrix._raw(tuple(out), len(out), cols)
