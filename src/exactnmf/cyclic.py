"""Factoring 7x7 rank-3 matrices with the cyclic heptagon zero pattern.

The pattern, after relabeling, is M[i][j] = 0 exactly when i is congruent
to j-1 or j mod 7 (1-based), with every other entry strictly positive.
Such a matrix is a positive row/column rescaling of a canonical matrix, so
it factors exactly as a 7x6 times 6x7 nonnegative product.  The cores
take bare integer columns and read the integer tuple, the (num, den) row
scales and the right factor, as integer rows, off them; the checked
wrappers take the column divisors back themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from . import canonical
from .canonical import CanonicalParams, MonomialMatrix, Rank6Certificate, _compose
from .errors import DimensionError, InternalError, PatternError, RankError
from .linalg import Matrix, cleared_columns, format_value, is_certificate, rank

SIZE = 7


@dataclass(frozen=True)
class CyclicLabeling:
    """Row/column relabeling onto the canonical cyclic pattern.

    ``row_order[t]`` (0-based) is the original row placed at new position
    t, and likewise for columns, so the relabeled matrix is
    ``M[row_order[t]][col_order[s]]``.
    """

    row_order: Tuple[int, ...]
    col_order: Tuple[int, ...]

    def apply(self, m: Matrix) -> Matrix:
        data = tuple(tuple(m.data[r][c] for c in self.col_order) for r in self.row_order)
        return Matrix._raw(data, SIZE, SIZE)

    @property
    def is_identity(self) -> bool:
        n = len(self.row_order)
        return self.row_order == tuple(range(n)) and self.col_order == tuple(range(n))


def _zero_positions(m: Matrix):
    """Per-row zero index pairs; raises PatternError unless each row and
    column has exactly two zeros and all else is positive."""
    row_zeros = []
    for i, row in enumerate(m.data):
        for j, x in enumerate(row):
            if x < 0:
                raise PatternError(f"negative entry {format_value(x)} at ({i}, {j})")
        zs = tuple(j for j, x in enumerate(row) if x == 0)
        if len(zs) != 2:
            raise PatternError(f"row {i} has {len(zs)} zeros, expected 2")
        row_zeros.append(zs)
    for j in range(SIZE):
        count = sum(j in zs for zs in row_zeros)
        if count != 2:
            raise PatternError(f"column {j} has {count} zeros, expected 2")
    return row_zeros


def detect_cyclic_labeling(m: Matrix) -> CyclicLabeling:
    """Find the relabeling that puts ``m`` into the canonical pattern.

    Columns are graph nodes and each row is an edge joining the two
    columns where it vanishes; the pattern holds exactly when this graph
    is a single 7-cycle.  The labeling is fixed deterministically: the
    traversal starts at the lowest-indexed column and moves toward its
    lower-indexed neighbor.
    """
    if m.shape != (SIZE, SIZE):
        raise DimensionError(f"expected a 7x7 matrix, got {m.shape}")
    row_zeros = _zero_positions(m)

    # Every column has degree 2 and no two rows share a pair, so the
    # graph is a union of cycles, and the walk from column 0 meets all
    # seven columns exactly when it is one 7-cycle.
    neighbors = {j: [] for j in range(SIZE)}
    edge_row = {}
    for i, pair in enumerate(row_zeros):
        if pair in edge_row:
            raise PatternError(f"rows {edge_row[pair]} and {i} vanish on the same column pair")
        edge_row[pair] = i
        neighbors[pair[0]].append(pair[1])
        neighbors[pair[1]].append(pair[0])

    col_order = [0, min(neighbors[0])]
    while len(col_order) < SIZE:
        nxt = next(c for c in neighbors[col_order[-1]] if c != col_order[-2])
        if nxt in col_order:
            raise PatternError("column adjacency closes early; not one 7-cycle")
        col_order.append(nxt)

    # New row t vanishes exactly at new columns t and t+1.
    pairs = zip(col_order, col_order[1:] + col_order[:1])
    return CyclicLabeling(tuple(edge_row[min(p), max(p)] for p in pairs), tuple(col_order))


@dataclass(frozen=True)
class CanonicalReduction:
    """Positive rescaling of a patterned matrix onto the canonical family.

    row_scale @ M @ col_scale == canonical_matrix(params) @ diag(col_constants)
    holds entrywise, with every scale and constant strictly positive.
    """

    params: CanonicalParams
    row_scale: MonomialMatrix
    col_scale: MonomialMatrix
    col_constants: Tuple[Fraction, ...]


def scale_to_canonical(m: Matrix) -> CanonicalReduction:
    """Rescale a rank-3 matrix already in the canonical pattern.

    The fixed recipe: column 3 is multiplied by M54/M53 and column 5 by
    M24/M25; row 3 by M25/(M24*M35), row 4 by M53/(M43*M54), and each
    remaining row i by 1/Mi4.  The six parameters are then read off at
    the scaled entries (63, 73, 13, 65, 75, 15), and each column constant
    is the ratio against the canonical matrix at the first nonzero row,
    cross-checked at every entry.
    """
    labeling = detect_cyclic_labeling(m)
    if not labeling.is_identity:
        raise PatternError("matrix is not in the canonical pattern")
    r = rank(m)
    if r != 3:
        raise RankError(f"cyclic-pattern factorization needs rank 3, got {r}")

    # m is the core's integer matrix over its column divisors; the row scales take column 4's.
    columns, divisors = zip(*cleared_columns(m))
    tuple_rows, table, row_nd = _scale_to_canonical(columns, labeling)
    reference = canonical._matrix(table).data
    rows = [Fraction(n, d * divisors[3]) for n, d in row_nd]
    cols = [next(m.data[i][j] / (rows[i] * reference[i][j]) for i in range(SIZE) if reference[i][j])
            for j in range(SIZE)]
    for i in range(SIZE):
        for j in range(SIZE):
            if m.data[i][j] != rows[i] * reference[i][j] * cols[j]:
                raise InternalError(
                    f"entry ({i + 1}, {j + 1}) breaks the rescaling identity; "
                    "input is not rank 3 with this pattern"
                )
    one, row2, row5 = Fraction(1), m.data[1], m.data[4]
    col_scales = [one, one, row5[3] / row5[2], one, row2[3] / row2[4], one, one]
    return CanonicalReduction(
        params=canonical._params(tuple_rows),
        row_scale=MonomialMatrix.diagonal([1 / x for x in rows]),
        col_scale=MonomialMatrix.diagonal(col_scales),
        col_constants=tuple(k * s for k, s in zip(cols, col_scales)),
    )


def _scale_to_canonical(columns, labeling: CyclicLabeling):
    """``scale_to_canonical`` on the integer M (entry (i, j) is columns[j][i])
    its caller proved rank 3 and, relabeled by ``labeling``, in the canonical
    pattern: (rows, table, row_nd), relabeled M == diag(row_nd) @ table @ K
    for the integer tuple ``rows``, its ``_admissible`` table, (num, den) row
    scales and a positive diagonal K.  Tests admissibility, which the theory
    guarantees and later steps divide by."""
    row_order, col_order = labeling.row_order, labeling.col_order
    x = lambda i, j: columns[col_order[j - 1]][row_order[i - 1]]  # noqa: E731 - 1-based
    # The recipe scales column 3 by M54 / M53 and column 5 by M24 / M25, so
    # a_i = M_i3 n3 / (M_i4 m3) and b_i = M_i5 n5 / (M_i4 m5) for the rows
    # i = 6, 7, 1.
    n3, m3 = x(5, 4), x(5, 3)
    n5, m5 = x(2, 4), x(2, 5)
    rows = tuple(canonical._primitive(x(i, 3) * n3 * m5, x(i, 4) * m3 * m5, x(i, 5) * n5 * m3)
                 for i in (6, 7, 1))
    table = canonical._admissible(rows)
    if table is None:
        raise InternalError(f"rescaled parameters {canonical._params(rows)} are not admissible")

    # Row factor i: M_i4, but M24 * M35 / M25 for row 3 and M43 * M54 / M53 for row 4.
    row_nd = [(x(i, 4), 1) for i in range(1, SIZE + 1)]
    row_nd[3 - 1] = (n5 * x(3, 5), m5)
    row_nd[4 - 1] = (x(4, 3) * n3, m3)
    return rows, table, row_nd


def factor_cyclic(m: Matrix) -> Rank6Certificate:
    """Exact 7x6 x 6x7 nonnegative factorization of a nonnegative rank-3
    matrix whose zero pattern is the cyclic pattern up to relabeling."""
    labeling = detect_cyclic_labeling(m)
    r = rank(m)
    if r != 3:
        raise RankError(f"cyclic-pattern factorization needs rank 3, got {r}")
    columns, divisors = zip(*cleared_columns(m))
    left, lines, steps, mirrored = _factor_cyclic(columns, labeling)
    right = canonical._matrix([[(x, e * d) for x, d in zip(y, divisors)] for y, e in lines])
    if not is_certificate(left, right, m):
        raise InternalError("cyclic factorization failed its final verification")
    return Rank6Certificate(left, right, steps, mirrored)


def _factor_cyclic(columns, labeling: CyclicLabeling):
    """``factor_cyclic`` on the integer M that ``_scale_to_canonical`` reads,
    with no product check: (left, lines, steps, mirrored), the right factor
    as integer rows (y, e).  Relabeled M == diag(rows) @ q_left @ L @ R, so
    the left side folds into one integer monomial; the right is read off M."""
    rows, table, row_nd = _scale_to_canonical(columns, labeling)
    q_left, left, q_right, steps, mirrored = canonical._factor_canonical(rows, table)
    # Row t of the relabeled matrix is row row_order[t] of M, column s column col_order[s].
    undo = tuple(sorted(range(SIZE), key=labeling.row_order.__getitem__))
    undo_rows = (undo, *zip(*(row_nd[t] for t in undo)))
    left, lines = canonical._assemble(_compose(undo_rows, q_left), left,
                                      tuple(labeling.col_order[p] for p in q_right),
                                      lambda i, j: (columns[j][i], 1))
    return left, lines, steps, mirrored
