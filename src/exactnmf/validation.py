"""Input coercion and validation helpers for the public surface."""

from __future__ import annotations

from .errors import DimensionError, NegativeEntryError
from .linalg import Matrix, as_scalar, format_value


def as_matrix(data) -> Matrix:
    """Coerce array-like input (nested sequences, numpy arrays, Matrix)
    to an exact :class:`Matrix`.

    Entries may be Fractions, ints, "p/q" or decimal strings, or floats
    (floats contribute their exact binary value).
    """
    if isinstance(data, Matrix):
        return data
    if hasattr(data, "tolist"):
        data = data.tolist()
    rows = list(data)
    if not rows:
        raise DimensionError("matrix input is empty")
    if not all(hasattr(r, "__iter__") and not isinstance(r, str) for r in rows):
        raise DimensionError("matrix input must be two-dimensional")
    return Matrix(rows)


def check_nonnegative(m: Matrix, name: str = "matrix") -> Matrix:
    """Raise NegativeEntryError if any entry of ``m`` is negative."""
    hit = m.first_negative_entry()
    if hit is not None:
        (i, j), value = hit
        raise NegativeEntryError(f"{name} has negative entry {format_value(value)} at ({i}, {j})")
    return m


def as_point(value) -> tuple:
    """Coerce a 2-sequence to an exact point (pair of Fractions), each
    coordinate read as a matrix entry is (``linalg.as_scalar``)."""
    pair = list(value)
    if len(pair) != 2:
        raise DimensionError(f"expected a 2-coordinate point, got ({', '.join(map(format_value, pair))})")
    return (as_scalar(pair[0]), as_scalar(pair[1]))
