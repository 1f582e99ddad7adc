"""Relabeling, rescaling and factoring of cyclic-patterned 7x7 matrices."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactnmf import canonical, cyclic
from exactnmf.canonical import (
    CanonicalParams,
    MonomialMatrix,
    Rank6Certificate,
    canonical_matrix,
    is_admissible,
)
from exactnmf.cyclic import (
    CyclicLabeling,
    detect_cyclic_labeling,
    factor_cyclic,
    scale_to_canonical,
)
from exactnmf.errors import DimensionError, InternalError, PatternError, RankError
from exactnmf.generate import random_admissible_params, random_convex_polygon
from exactnmf.linalg import Matrix, cleared_columns
from exactnmf.polygon import polygon_from_points, slack_matrix
from exactnmf.rng import SplitMix64

from conftest import H7_COL_CONSTANTS, H7_VERTICES
import test_canonical
from test_canonical import (
    admissible_tuples,
    compacted,
    fraction_canonical_matrix,
    fraction_factor_canonical,
    fraction_is_admissible,
    monomial_product,
    starved,
)


def shift_rows(m: Matrix, k: int) -> Matrix:
    return Matrix([m.row((i + k) % m.rows) for i in range(m.rows)])


class TestDetectLabeling:
    def test_canonical_pattern_gives_identity(self, h7_params):
        v = canonical_matrix(h7_params)
        labeling = detect_cyclic_labeling(v)
        assert labeling.is_identity

    def test_cyclic_row_shift_is_undone(self, h7_params):
        v = canonical_matrix(h7_params)
        shifted = shift_rows(v, 3)
        labeling = detect_cyclic_labeling(shifted)
        relabeled = labeling.apply(shifted)
        for j in range(1, 8):
            assert relabeled[(j - 1) % 7, j - 1] == 0
            assert relabeled[(j - 2) % 7, j - 1] == 0

    def test_clockwise_heptagon_gets_valid_relabeling(self):
        clockwise = [H7_VERTICES[0]] + H7_VERTICES[:0:-1]
        s = slack_matrix(polygon_from_points(clockwise)).matrix
        labeling = detect_cyclic_labeling(s)
        relabeled = labeling.apply(s)
        for i in range(1, 8):
            for j in range(1, 8):
                expected_zero = i % 7 == j % 7 or i % 7 == (j - 1) % 7
                assert (relabeled[i - 1, j - 1] == 0) == expected_zero

    def test_wrong_shape_rejected(self):
        with pytest.raises(DimensionError):
            detect_cyclic_labeling(Matrix.identity(6))

    def test_wrong_zero_count_rejected(self):
        with pytest.raises(PatternError):
            detect_cyclic_labeling(Matrix.identity(7))

    def test_negative_entry_rejected(self, h7_slack):
        rows = h7_slack.tolist()
        rows[0][3] = -rows[0][3]
        with pytest.raises(PatternError):
            detect_cyclic_labeling(Matrix(rows))

    def test_two_short_cycles_rejected(self):
        # rows pair columns as a 3-cycle (0,1,2) and a 4-cycle (3,4,5,6)
        pairs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]
        rows = []
        for z1, z2 in pairs:
            row = [Fraction(1)] * 7
            row[z1] = row[z2] = Fraction(0)
            rows.append(row)
        with pytest.raises(PatternError):
            detect_cyclic_labeling(Matrix(rows))


class TestScaleToCanonical:
    def test_canonical_input_is_fixed_point(self, h7_params):
        v = canonical_matrix(h7_params)
        reduction = scale_to_canonical(v)
        assert reduction.params == h7_params
        assert all(c == 1 for c in reduction.col_constants)
        assert all(s == 1 for s in reduction.row_scale.scales)
        assert all(s == 1 for s in reduction.col_scale.scales)

    def test_h7_slack_reduction(self, h7_slack, h7_params):
        reduction = scale_to_canonical(h7_slack)
        assert reduction.params == h7_params
        assert reduction.col_constants == H7_COL_CONSTANTS

    def test_middle_constants_are_one(self):
        rng = SplitMix64(41)
        for _ in range(10):
            s = slack_matrix(random_convex_polygon(rng, 7)).matrix
            labeling = detect_cyclic_labeling(s)
            reduction = scale_to_canonical(labeling.apply(s))
            assert reduction.col_constants[2:5] == (1, 1, 1)
            assert all(c > 0 for c in reduction.col_constants)

    def test_reconstruction_identity_all_entries(self, h7_slack):
        reduction = scale_to_canonical(h7_slack)
        lhs = (
            reduction.row_scale.to_matrix()
            @ h7_slack
            @ reduction.col_scale.to_matrix()
        )
        rhs = canonical_matrix(reduction.params) @ MonomialMatrix.diagonal(
            reduction.col_constants
        ).to_matrix()
        assert lhs == rhs

    def test_rank_enforced(self, h7_params):
        v = canonical_matrix(h7_params)
        # wipe the parameter rows' contribution: a generic positive
        # perturbation of one entry raises the rank above 3
        rows = v.tolist()
        rows[0][2] = rows[0][2] + 1
        with pytest.raises(RankError):
            scale_to_canonical(Matrix(rows))

    def test_pattern_enforced(self, h7_slack):
        rows = h7_slack.tolist()
        rows[0][0] = Fraction(1)  # structural zero overwritten
        with pytest.raises(PatternError):
            scale_to_canonical(Matrix(rows))


class TestFactorCyclic:
    def test_canonical_matrix_input(self, h7_params):
        from exactnmf.canonical import factor_canonical

        v = canonical_matrix(h7_params)
        cert = factor_cyclic(v)
        assert cert.left @ cert.right == v
        assert cert.left.is_nonnegative() and cert.right.is_nonnegative()
        assert cert.left.shape == (7, 6) and cert.right.shape == (6, 7)
        # a matrix already in canonical form reduces with unit scalings,
        # so the certificate coincides with the direct one
        direct = factor_canonical(h7_params)
        assert cert.left == direct.left and cert.right == direct.right

    def test_h7_slack(self, h7_slack):
        cert = factor_cyclic(h7_slack)
        assert cert.left @ cert.right == h7_slack
        assert cert.left.is_nonnegative() and cert.right.is_nonnegative()

    def test_relabeled_input(self, h7_slack):
        shifted = shift_rows(h7_slack, 2)
        cert = factor_cyclic(shifted)
        assert cert.left @ cert.right == shifted

    def test_random_heptagons(self):
        rng = SplitMix64(42)
        for _ in range(20):
            s = slack_matrix(random_convex_polygon(rng, 7)).matrix
            cert = factor_cyclic(s)
            assert cert.left @ cert.right == s
            assert cert.left.is_nonnegative() and cert.right.is_nonnegative()

    def test_monomial_conjugation_preserves_certificates(self, h7_slack):
        cert = factor_cyclic(h7_slack)
        rng = SplitMix64(43)
        perm = sorted(range(7), key=lambda _: rng.next_u64())
        scales = [Fraction(rng.below(20) + 1, rng.below(7) + 1) for _ in range(7)]
        left_mono = MonomialMatrix(perm, scales).to_matrix()
        right_mono = MonomialMatrix.diagonal(
            [Fraction(rng.below(20) + 1, rng.below(7) + 1) for _ in range(7)]
        ).to_matrix()
        conjugated = left_mono @ h7_slack @ right_mono
        new_left = left_mono @ cert.left
        new_right = cert.right @ right_mono
        assert new_left @ new_right == conjugated
        assert new_left.is_nonnegative() and new_right.is_nonnegative()
        assert new_left.cols == 6

    def test_random_canonical_matrices(self):
        rng = SplitMix64(44)
        for _ in range(10):
            p = random_admissible_params(rng)
            v = canonical_matrix(p)
            cert = factor_cyclic(v)
            assert cert.left @ cert.right == v

    def test_large_entry_sizes(self):
        # nothing in the pipeline may assume small numerators or denominators
        rng = SplitMix64(45)
        den = 1 << 40
        while True:
            xs = sorted(rng.below(den - 1) + 1 for _ in range(3))
            ys = sorted(rng.below(den - 1) + 1 for _ in range(3))
            p = CanonicalParams(
                Fraction(xs[2], den), Fraction(xs[1], den), Fraction(xs[0], den),
                Fraction(ys[0], den), Fraction(ys[1], den), Fraction(ys[2], den),
            )
            if is_admissible(p):
                break
        v = canonical_matrix(p)
        cert = factor_cyclic(v)
        assert cert.left @ cert.right == v
        assert cert.left.is_nonnegative() and cert.right.is_nonnegative()


# -- the integer rescaling and cyclic core against the Fraction code --------
#
# ``_scale_to_canonical`` and ``_factor_cyclic`` as they were on Fractions,
# verbatim but for the names of what they call: the Fraction search,
# canonical matrix and admissibility of ``test_canonical``, and
# ``monomial_product(q, r)`` for a product ``q @ r`` of monomials.

SIZE = 7


def fraction_scale_to_canonical(columns, divisors, labeling: CyclicLabeling):
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
    if not fraction_is_admissible(params):
        raise InternalError(f"rescaled parameters {params} are not admissible")
    reference = fraction_canonical_matrix(params)

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


def fraction_factor_cyclic(columns, divisors, labeling: CyclicLabeling) -> Rank6Certificate:
    """``factor_cyclic`` on M as ``_scale_to_canonical`` reads it, with no
    product check: relabeled M == diag(rows) @ q_left @ L @ R @ q_right @
    diag(cols), so the relabeling and every scaling fold into one monomial
    per side and each output entry is one product."""
    params, reference, rows, cols = fraction_scale_to_canonical(columns, divisors, labeling)
    q_left, cert, q_right = fraction_factor_canonical(params, reference)
    # Row t of the relabeled matrix is row row_order[t] of M, and column s
    # is column col_order[s].
    undo = sorted(range(SIZE), key=labeling.row_order.__getitem__)
    undo_rows = MonomialMatrix._raw(tuple(undo), tuple(rows[t] for t in undo))
    left = monomial_product(undo_rows, q_left).apply_left(cert.left)
    right = monomial_product(
        q_right, MonomialMatrix._raw(labeling.col_order, tuple(cols))
    ).apply_right(cert.right)
    return Rank6Certificate(left, right, cert.steps_taken, cert.used_reversal)


positive = st.builds(Fraction, st.integers(1, 10**30), st.integers(1, 10**30))


@st.composite
def scrambled_canonical(draw):
    """P diag(r) V diag(c) Q for the canonical matrix V of an admissible
    tuple, positive r and c with large numerators and denominators, and
    row and column permutations P and Q: every rank-3 matrix with the
    cyclic pattern up to relabeling."""
    v = fraction_canonical_matrix(draw(admissible_tuples()))
    r = [draw(positive) for _ in range(SIZE)]
    c = [draw(positive) for _ in range(SIZE)]
    rows = draw(st.permutations(range(SIZE)))
    cols = draw(st.permutations(range(SIZE)))
    return Matrix([[r[i] * v.data[i][j] * c[j] for j in cols] for i in rows])


def reads(m):
    """(columns, divisors, labeling): ``m`` is the integer matrix of
    ``columns`` over its column ``divisors``."""
    return (*zip(*cleared_columns(m)), detect_cyclic_labeling(m))


def integer_reads(m):
    """(columns, labeling) as the cyclic core reads the integer matrix of
    ``m``'s cleared columns."""
    columns, _, labeling = reads(m)
    return columns, labeling


def fraction_integer_reads(m):
    """The same integer matrix as the Fraction code reads it: every
    divisor 1."""
    columns, _, labeling = reads(m)
    return columns, (1,) * SIZE, labeling


@settings(max_examples=150)
@given(scrambled_canonical())
def test_integer_rescaling_matches_fraction_code(m):
    """The integer tuple, its determinants and the row scales as (num, den)
    pairs, against the Fraction rescaling of the same integer matrix."""
    rows, table, row_nd = cyclic._scale_to_canonical(*integer_reads(m))
    params, reference, row_scales, _ = fraction_scale_to_canonical(*fraction_integer_reads(m))
    assert canonical._params(rows) == params and rows == canonical._rows(params)
    assert canonical._matrix(table) == reference
    assert [Fraction(*x) for x in row_nd] == row_scales


@settings(max_examples=150)
@given(scrambled_canonical())
def test_checked_rescaling_matches_fraction_code(m):
    """``scale_to_canonical`` in canonical order, with the column divisors
    the core no longer reads: its row scales are the inverse Fraction row
    scales, its column scales the recipe's, and each column constant the
    Fraction column scale times its column scale."""
    m = detect_cyclic_labeling(m).apply(m)
    reduction = scale_to_canonical(m)
    params, _, rows, cols = fraction_scale_to_canonical(*reads(m))
    assert reduction.params == params
    assert reduction.row_scale == MonomialMatrix.diagonal([1 / r for r in rows])
    scales = [1, 1, m[4, 3] / m[4, 2], 1, m[1, 3] / m[1, 4], 1, 1]
    assert reduction.col_scale == MonomialMatrix.diagonal(scales)
    assert reduction.col_constants == tuple(c * s for c, s in zip(cols, scales))


@settings(max_examples=150)
@given(scrambled_canonical(), st.booleans())
def test_integer_cyclic_core_matches_fraction_code(m, mirror):
    """The left factor, the right factor's integer rows and the search
    record against the Fraction core's on the same integer matrix, made
    primitive, with the mirror search forced in both when ``mirror`` is
    set; and ``factor_cyclic``, which divides by the column divisors,
    against the Fraction core on ``m`` itself."""
    with pytest.MonkeyPatch.context() as patch:
        if mirror:
            patch.setattr(canonical, "_middle_min", starved(canonical._middle_min))
            patch.setattr(test_canonical, "fraction_middle_min",
                          starved(test_canonical.fraction_middle_min))
        left, lines, steps, mirrored = cyclic._factor_cyclic(*integer_reads(m))
        expected = fraction_factor_cyclic(*fraction_integer_reads(m))
    assert all(e > 0 for _, e in lines)
    right = canonical._matrix([[(x, e) for x in y] for y, e in lines])
    assert Rank6Certificate(left, right, steps, mirrored) == compacted(expected)
    assert mirrored == mirror
    assert factor_cyclic(m) == compacted(fraction_factor_cyclic(*reads(m)))


def test_rescaling_rejects_what_the_oracle_rejects(h7_slack):
    """A pattern-carrying matrix whose rescaled tuple is not admissible:
    both codes raise InternalError."""
    rows = h7_slack.tolist()
    rows[0][2] = rows[0][2] * 1000  # M13 enters a3 alone
    m = Matrix(rows)
    with pytest.raises(InternalError):
        cyclic._scale_to_canonical(*integer_reads(m))
    with pytest.raises(InternalError):
        fraction_scale_to_canonical(*reads(m))
