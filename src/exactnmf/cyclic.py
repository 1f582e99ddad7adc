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
from .linalg import Matrix, is_product, rank

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
        return Matrix(
            [[m.data[r][c] for c in self.col_order] for r in self.row_order]
        )

    def undo_left(self, left: Matrix) -> Matrix:
        """Send rows of a relabeled left factor back to original positions."""
        rows = [None] * left.rows
        for t, original in enumerate(self.row_order):
            rows[original] = left.data[t]
        return Matrix(rows)

    def undo_right(self, right: Matrix) -> Matrix:
        """Send columns of a relabeled right factor back to original positions."""
        cols = right.cols
        out = [[None] * cols for _ in range(right.rows)]
        for s, original in enumerate(self.col_order):
            for i in range(right.rows):
                out[i][original] = right.data[i][s]
        return Matrix(out)

    @property
    def is_identity(self) -> bool:
        n = len(self.row_order)
        return self.row_order == tuple(range(n)) and self.col_order == tuple(range(n))


def _zero_positions(m: Matrix):
    """Per-row and per-column zero index sets; raises PatternError unless
    each row and column has exactly two zeros and all else is positive."""
    row_zeros = []
    col_zeros = [[] for _ in range(SIZE)]
    for i in range(SIZE):
        zs = []
        for j in range(SIZE):
            x = m.data[i][j]
            if x == 0:
                zs.append(j)
                col_zeros[j].append(i)
            elif x < 0:
                raise PatternError(f"negative entry {x} at ({i}, {j})")
        if len(zs) != 2:
            raise PatternError(f"row {i} has {len(zs)} zeros, expected 2")
        row_zeros.append(tuple(zs))
    for j, zs in enumerate(col_zeros):
        if len(zs) != 2:
            raise PatternError(f"column {j} has {len(zs)} zeros, expected 2")
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

    neighbors = {j: [] for j in range(SIZE)}
    edge_row = {}
    for i, (z1, z2) in enumerate(row_zeros):
        key = (min(z1, z2), max(z1, z2))
        if key in edge_row:
            raise PatternError(f"rows {edge_row[key]} and {i} vanish on the same column pair")
        edge_row[key] = i
        neighbors[z1].append(z2)
        neighbors[z2].append(z1)

    start = 0
    first = min(neighbors[start])
    col_order = [start, first]
    while len(col_order) < SIZE:
        prev, here = col_order[-2], col_order[-1]
        nxt = [c for c in neighbors[here] if c != prev]
        if len(nxt) != 1:
            raise PatternError("column adjacency is not a simple cycle")
        if nxt[0] in col_order:
            raise PatternError("column adjacency closes early; not one 7-cycle")
        col_order.append(nxt[0])
    last, back = col_order[-1], col_order[0]
    if sorted(neighbors[last]) != sorted([col_order[-2], back]):
        raise PatternError("column adjacency does not close into one 7-cycle")

    # New row t must vanish exactly at new columns t and t+1.
    row_order = []
    for t in range(SIZE):
        a, b = col_order[t], col_order[(t + 1) % SIZE]
        row_order.append(edge_row[(min(a, b), max(a, b))])

    labeling = CyclicLabeling(tuple(row_order), tuple(col_order))
    relabeled = labeling.apply(m)
    for i in range(1, SIZE + 1):
        for j in range(1, SIZE + 1):
            zero = relabeled.data[i - 1][j - 1] == 0
            if zero != canonical.is_structural_zero(i, j):
                raise PatternError(f"relabeled matrix misses the pattern at ({i}, {j})")
    return labeling


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
    if m.shape != (SIZE, SIZE):
        raise DimensionError(f"expected a 7x7 matrix, got {m.shape}")
    _zero_positions(m)  # positivity + zero-count checks
    for i in range(1, SIZE + 1):
        for j in range(1, SIZE + 1):
            if (m.data[i - 1][j - 1] == 0) != canonical.is_structural_zero(i, j):
                raise PatternError(f"matrix is not in the canonical pattern at ({i}, {j})")
    r = rank(m)
    if r != 3:
        raise RankError(f"cyclic-pattern factorization needs rank 3, got {r}")

    u = lambda i, j: m.data[i - 1][j - 1]  # noqa: E731 - 1-based view
    one = Fraction(1)
    col_scales = [one] * SIZE
    col_scales[3 - 1] = u(5, 4) / u(5, 3)
    col_scales[5 - 1] = u(2, 4) / u(2, 5)
    row_scales = [one] * SIZE
    row_scales[3 - 1] = u(2, 5) / (u(2, 4) * u(3, 5))
    row_scales[4 - 1] = u(5, 3) / (u(4, 3) * u(5, 4))
    for i in (1, 2, 5, 6, 7):
        row_scales[i - 1] = 1 / u(i, 4)

    scaled = [
        [row_scales[i] * m.data[i][j] * col_scales[j] for j in range(SIZE)]
        for i in range(SIZE)
    ]
    s = lambda i, j: scaled[i - 1][j - 1]  # noqa: E731
    params = CanonicalParams(s(6, 3), s(7, 3), s(1, 3), s(6, 5), s(7, 5), s(1, 5))
    reference = canonical.canonical_matrix(params)

    constants = []
    for j in range(1, SIZE + 1):
        c_j = None
        for i in range(1, SIZE + 1):
            v = reference.data[i - 1][j - 1]
            if v != 0:
                c_j = s(i, j) / v
                break
        if c_j is None or c_j <= 0:
            raise ConsistencyError(f"column {j} has no positive scaling constant")
        constants.append(c_j)
    for i in range(1, SIZE + 1):
        for j in range(1, SIZE + 1):
            if s(i, j) != constants[j - 1] * reference.data[i - 1][j - 1]:
                raise ConsistencyError(
                    f"entry ({i}, {j}) breaks the rescaling identity; "
                    "input is not rank 3 with this pattern"
                )
    return CanonicalReduction(
        params=params,
        row_scale=MonomialMatrix.diagonal(row_scales),
        col_scale=MonomialMatrix.diagonal(col_scales),
        col_constants=tuple(constants),
    )


def factor_cyclic(m: Matrix) -> Rank6Certificate:
    """Exact 7x6 x 6x7 nonnegative factorization of a nonnegative rank-3
    matrix whose zero pattern is the cyclic pattern up to relabeling."""
    labeling = detect_cyclic_labeling(m)
    relabeled = labeling.apply(m)
    reduction = scale_to_canonical(relabeled)
    cert = canonical.factor_canonical(reduction.params)

    # relabeled == row_scale^-1 @ left @ right @ diag(c) @ col_scale^-1
    diag_c = MonomialMatrix.diagonal(reduction.col_constants)
    left = reduction.row_scale.inverse().apply_left(cert.left)
    right = reduction.col_scale.inverse().apply_right(diag_c.apply_right(cert.right))

    left = labeling.undo_left(left)
    right = labeling.undo_right(right)
    if not is_product(left, right, m) or not (
        left.is_nonnegative() and right.is_nonnegative()
    ):
        raise TheoryViolation("cyclic factorization failed its final verification")
    return Rank6Certificate(left, right, cert.steps_taken, cert.used_reversal)
