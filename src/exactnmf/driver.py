"""Factor any rank <= 3 nonnegative matrix with a certified inner
dimension of at most ceil(6 * min(m, n) / 7).

Rows are chunked into groups of seven along the short side; each group
factors through its simplex section (inner dimension <= 6 per group) and
the blocks assemble into one certificate.  Every certificate carries the
exact factors plus a provenance trace and can be re-verified entry by
entry.

One pass over the input's numerators finds its zero lines and first negative
entry.  Chunks go to the trusting cores of the section, cyclic and canonical
layers, which take the rank and nonnegativity proved here as given and read
slices of the columns the core's rank cleared.  One closing
``verify_factorization`` checks the certificate, its product kernel reading
the factors' signs; if it fails, a block-wise re-check names the first bad
chunk's rows and trace method.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import compress
from typing import List, Tuple

from .errors import InternalError, NegativeEntryError, RankError
from .linalg import (Matrix, block_diag, cleared_columns, format_value, insert_zero_lines,
                     is_certificate, product_difference, rank)
from .section import _factor_low_rank, _factor_seven_by_n
from .validation import as_matrix

log = logging.getLogger("exactnmf")


def inner_dimension_bound(rows: int, cols: int) -> int:
    """ceil(6 * min(rows, cols) / 7)."""
    m = min(rows, cols)
    return -(-6 * m // 7)


@dataclass(frozen=True)
class Factorization:
    """Certificate: ``left @ right`` equals the input exactly, both factors
    are entrywise nonnegative, and ``inner_dim <= bound``."""

    left: Matrix
    right: Matrix
    inner_dim: int
    bound: int
    trace: Tuple[dict, ...]


@dataclass
class VerificationReport:
    """Outcome of re-checking a certificate; ``failures`` lists every
    violated check with its first offending entry."""

    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        if self.ok:
            return "all checks passed"
        return "; ".join(self.failures)


def _strip_zero_lines(a: Matrix):
    """(core, zero_rows, zero_cols) from one pass over each row's numerators,
    which raises NegativeEntryError at the first negative entry, row-major:
    core is ``a`` without its zero lines, ``a`` if it has none, None if all are."""
    zero_rows, live, every = [], set(), range(a.cols)
    for i, row in enumerate(a.data):
        nums = [x.numerator for x in row]
        if min(nums, default=0) < 0:
            j = next(j for j, n in enumerate(nums) if n < 0)
            raise NegativeEntryError(
                f"input matrix has negative entry {format_value(row[j])} at ({i}, {j})")
        if not any(nums):
            zero_rows.append(i)
        live.update(compress(every, nums))
    zero_cols = [j for j in every if j not in live]
    if not live:
        return None, zero_rows, zero_cols
    if not zero_rows and not zero_cols:
        return a, zero_rows, zero_cols
    keep_cols, drop_rows = sorted(live), set(zero_rows)
    data = tuple(tuple(row[j] for j in keep_cols)
                 for i, row in enumerate(a.data) if i not in drop_rows)
    return Matrix._raw(data, len(data), len(keep_cols)), zero_rows, zero_cols


def _factor_chunk(chunk: Matrix, row_start: int):
    """Factor one row chunk (7 rows, or the final remainder) with the
    trusting cores; ``nn_factor`` checks the assembled certificate."""
    r = rank(chunk)
    if chunk.rows == 7 and r == 3:
        left, right, info = _factor_seven_by_n(chunk)
    elif r <= 2:
        left, right, info = _factor_low_rank(chunk)
    else:  # remainder of fewer than 7 rows with rank 3
        left, right = Matrix.identity(chunk.rows), chunk
        info = {"method": "identity", "inner_dim": chunk.rows}
    return left, right, dict(info, rows=[row_start, row_start + chunk.rows])


def nn_factor(a) -> Factorization:
    """Factor a nonnegative matrix of rank at most 3 exactly.

    Returns a :class:`Factorization` with nonnegative factors whose
    product reconstructs the input bit for bit and whose inner dimension
    is at most ceil(6 * min(m, n) / 7).  Inputs of rank 4 or more are
    rejected with :class:`RankError`: no comparable bound exists for them
    here.
    """
    a = as_matrix(a)
    bound = inner_dimension_bound(a.rows, a.cols)
    trace: List[dict] = []

    core, zero_rows, zero_cols = _strip_zero_lines(a)
    if zero_rows or zero_cols:
        log.debug("stripped zero rows %s and zero columns %s", zero_rows, zero_cols)
        trace.append({"method": "strip-zeros", "zero_rows": zero_rows, "zero_cols": zero_cols})
    if core is None:
        trace.append({"method": "zero", "inner_dim": 0})
        return Factorization(Matrix.zeros(a.rows, 0), Matrix.zeros(0, a.cols), 0, bound,
                             tuple(trace))

    transposed = core.rows > core.cols
    if transposed:
        core = core.transpose()
        log.debug("working on the transpose: %s rows", core.rows)
        trace.append({"method": "transpose"})

    r = rank(core, cap=4)
    if r > 3:
        raise RankError("input has rank at least 4; only ranks 0..3 are supported")

    # A rank <= 2 core factors whole; a rank-3 one in chunks of 7 rows.
    if r <= 2 or core.rows <= 7:
        chunks = [core]
    else:
        # Chunks read slices of the columns the rank cleared: cores use only c / d.
        columns = cleared_columns(core)
        chunks = [Matrix._raw(core.data[p : p + 7], min(7, core.rows - p), core.cols,
                              tuple((c[p : p + 7], d) for c, d in columns))
                  for p in range(0, core.rows, 7)]
    blocks = [(chunk, *_factor_chunk(chunk, 7 * n)) for n, chunk in enumerate(chunks)]
    for *_, record in blocks:
        trace.append(record)
        log.info("chunk %s: %s", record["rows"], record["method"])
    left = block_diag([cl for _, cl, _, _ in blocks])
    right = Matrix._raw(tuple(row for _, _, cr, _ in blocks for row in cr.data),
                        left.cols, core.cols)

    if transposed:
        left, right = right.transpose(), left.transpose()

    left = insert_zero_lines(left, zero_rows, (), a.rows, left.cols)
    right = insert_zero_lines(right, (), zero_cols, right.rows, a.cols)
    fact = Factorization(left, right, left.cols, bound, tuple(trace))
    report = verify_factorization(a, fact)
    if not report.ok:
        # Name the first chunk whose block does not factor its rows.
        where = next((
            f" in chunk rows {record['rows']} ({record['method']})"
            for chunk, cl, cr, record in blocks
            if not is_certificate(cl, cr, chunk)
        ), "")
        raise InternalError(f"internal certificate verification failed{where}: {report}")
    return fact


def verify_factorization(a, fact: Factorization) -> VerificationReport:
    """Re-check a certificate against a matrix, exactly.

    Checks shapes, entrywise nonnegativity of both factors, the product
    identity, and the inner-dimension bound; each violation is reported
    with the first offending entry.
    """
    a = as_matrix(a)
    report = VerificationReport()
    left, right = fact.left, fact.right
    if left.rows != a.rows:
        report.failures.append(f"left factor has {left.rows} rows, input has {a.rows}")
    if right.cols != a.cols:
        report.failures.append(f"right factor has {right.cols} columns, input has {a.cols}")
    if left.cols != right.rows:
        report.failures.append(
            f"inner dimensions disagree: left is {left.shape}, right is {right.shape}")
    if fact.inner_dim != left.cols:
        report.failures.append(
            f"declared inner dimension {fact.inner_dim} differs from left factor shape {left.shape}"
        )
    signs = [None, None]
    hit = product_difference(left, right, a, signs)
    for name, negative in zip(("left", "right"), signs):
        if negative is not None:
            (i, j), x = negative
            report.failures.append(
                f"{name} factor has negative entry {format_value(x)} at ({i}, {j})")
    if hit is not None:
        i, j, value = hit
        report.failures.append(
            f"product disagrees with input at ({i}, {j}): "
            f"{format_value(value)} != {format_value(a.data[i][j])}"
        )
    expected_bound = inner_dimension_bound(a.rows, a.cols)
    if fact.bound != expected_bound:
        report.failures.append(
            f"declared bound {fact.bound} differs from ceil(6*min(m,n)/7) = {expected_bound}"
        )
    if fact.inner_dim > expected_bound:
        report.failures.append(
            f"inner dimension {fact.inner_dim} exceeds the bound {expected_bound}"
        )
    return report
