"""Factoring 7x7 rank-3 matrices with the cyclic heptagon zero pattern.

The pattern, after relabeling, is M[i][j] = 0 exactly when i is congruent
to j-1 or j mod 7 (1-based), with every other entry strictly positive.
Such a matrix is a positive row/column rescaling of a canonical matrix, so
it factors exactly as a 7x6 times 6x7 nonnegative product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from . import canonical
from .canonical import CanonicalParams, MonomialMatrix, Rank6Certificate
from .errors import ConsistencyError, DimensionError, PatternError, RankError, TheoryViolation
from .linalg import Matrix, clear_denominators, is_certificate, rank

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


_IDENTITY = CyclicLabeling(tuple(range(SIZE)), tuple(range(SIZE)))


def _zero_positions(m: Matrix):
    """Per-row zero index pairs; raises PatternError unless each row and
    column has exactly two zeros and all else is positive."""
    row_zeros = []
    for i, row in enumerate(m.data):
        for j, x in enumerate(row):
            if x < 0:
                raise PatternError(f"negative entry {x} at ({i}, {j})")
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


def _cleared_columns(m: Matrix):
    """(columns, divisors): column j of ``m`` is columns[j] / divisors[j]
    with integer columns[j]."""
    return tuple(zip(*map(clear_denominators, zip(*m.data))))


def scale_to_canonical(m: Matrix) -> CanonicalReduction:
    """Rescale a rank-3 matrix already in the canonical pattern.

    The fixed recipe: column 3 is multiplied by M54/M53 and column 5 by
    M24/M25; row 3 by M25/(M24*M35), row 4 by M53/(M43*M54), and each
    remaining row i by 1/Mi4.  The six parameters are then read off at
    the scaled entries (63, 73, 13, 65, 75, 15), and each column constant
    is the ratio against the canonical matrix at the first nonzero row,
    cross-checked at every entry.
    """
    if not detect_cyclic_labeling(m).is_identity:
        raise PatternError("matrix is not in the canonical pattern")
    r = rank(m)
    if r != 3:
        raise RankError(f"cyclic-pattern factorization needs rank 3, got {r}")

    params, reference, rows, cols = _scale_to_canonical(*_cleared_columns(m), _IDENTITY)
    for i in range(SIZE):
        for j in range(SIZE):
            if m.data[i][j] != rows[i] * reference.data[i][j] * cols[j]:
                raise ConsistencyError(
                    f"entry ({i + 1}, {j + 1}) breaks the rescaling identity; "
                    "input is not rank 3 with this pattern"
                )
    one, row2, row5 = Fraction(1), m.data[1], m.data[4]
    col_scales = [one, one, row5[3] / row5[2], one, row2[3] / row2[4], one, one]
    return CanonicalReduction(
        params=params,
        row_scale=MonomialMatrix.diagonal([1 / x for x in rows]),
        col_scale=MonomialMatrix.diagonal(col_scales),
        col_constants=tuple(k * s for k, s in zip(cols, col_scales)),
    )


def _scale_to_canonical(columns, divisors, labeling: CyclicLabeling):
    """The rescaling of ``scale_to_canonical`` on integers, for a matrix M
    (entry (i, j) is columns[j][i] / divisors[j]) that its caller proved
    rank 3 and in the canonical pattern once relabeled by ``labeling``:
    (params, reference, rows, cols) with the relabeled M equal to
    diag(rows) @ reference @ diag(cols), reference the canonical matrix of
    params.  Row and column scalings cancel in the parameters, so they
    come straight from the integers.  Tests admissibility, which the
    theory guarantees and every later step divides by, once."""
    row_order, col_order = labeling.row_order, labeling.col_order
    x = lambda i, j: columns[col_order[j - 1]][row_order[i - 1]]  # noqa: E731 - 1-based
    # The recipe scales column 3 by M54 / M53 and column 5 by M24 / M25;
    # the column divisors cancel in every parameter.
    n3, m3 = x(5, 4), x(5, 3)
    n5, m5 = x(2, 4), x(2, 5)
    params = CanonicalParams(
        Fraction(x(6, 3) * n3, x(6, 4) * m3),
        Fraction(x(7, 3) * n3, x(7, 4) * m3),
        Fraction(x(1, 3) * n3, x(1, 4) * m3),
        Fraction(x(6, 5) * n5, x(6, 4) * m5),
        Fraction(x(7, 5) * n5, x(7, 4) * m5),
        Fraction(x(1, 5) * n5, x(1, 4) * m5),
    )
    if not canonical.is_admissible(params):
        raise ConsistencyError(f"rescaled parameters {params} are not admissible")
    reference = canonical.canonical_matrix(params)

    # Row factor i as (numerator, denominator): M_i4 for most rows,
    # M24 * M35 / M25 for row 3 and M43 * M54 / M53 for row 4.
    div4 = divisors[col_order[4 - 1]]
    row_nd = [(x(i, 4), div4) for i in range(1, SIZE + 1)]
    row_nd[3 - 1] = (n5 * x(3, 5), m5 * div4)
    row_nd[4 - 1] = (x(4, 3) * n3, m3 * div4)
    cols = []
    for j in range(1, SIZE + 1):
        i = 2 if j == 1 else 3 if j == 2 else 1
        v = reference.data[i - 1][j - 1]
        n, d = row_nd[i - 1]
        cols.append(Fraction(
            x(i, j) * d * v.denominator, divisors[col_order[j - 1]] * n * v.numerator
        ))
    return params, reference, [Fraction(n, d) for n, d in row_nd], cols


def factor_cyclic(m: Matrix) -> Rank6Certificate:
    """Exact 7x6 x 6x7 nonnegative factorization of a nonnegative rank-3
    matrix whose zero pattern is the cyclic pattern up to relabeling."""
    labeling = detect_cyclic_labeling(m)
    r = rank(m)
    if r != 3:
        raise RankError(f"cyclic-pattern factorization needs rank 3, got {r}")
    cert = _factor_cyclic(*_cleared_columns(m), labeling)
    if not is_certificate(cert.left, cert.right, m):
        raise TheoryViolation("cyclic factorization failed its final verification")
    return cert


def _factor_cyclic(columns, divisors, labeling: CyclicLabeling) -> Rank6Certificate:
    """``factor_cyclic`` on M as ``_scale_to_canonical`` reads it, with no
    product check: relabeled M == diag(rows) @ q_left @ L @ R @ q_right @
    diag(cols), so the relabeling and every scaling fold into one monomial
    per side and each output entry is one product."""
    params, reference, rows, cols = _scale_to_canonical(columns, divisors, labeling)
    q_left, cert, q_right = canonical._factor_canonical(params, reference)
    # Row t of the relabeled matrix is row row_order[t] of M, and column s
    # is column col_order[s].
    undo = sorted(range(SIZE), key=labeling.row_order.__getitem__)
    undo_rows = MonomialMatrix._raw(tuple(undo), tuple(rows[t] for t in undo))
    left = (undo_rows @ q_left).apply_left(cert.left)
    right = (q_right @ MonomialMatrix._raw(labeling.col_order, tuple(cols))).apply_right(cert.right)
    return Rank6Certificate(left, right, cert.steps_taken, cert.used_reversal)
