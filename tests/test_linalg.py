"""Exact linear algebra kernel: rank, solves, entry comparison."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactnmf import linalg
from exactnmf.driver import nn_factor
from exactnmf.errors import DimensionError, RankError
from exactnmf.linalg import (
    Inconsistency,
    Matrix,
    block_diag,
    pivot_columns,
    product_difference,
    rank,
    solve,
)
from exactnmf.rng import SplitMix64
from exactnmf.section import factor_low_rank


def leibniz_det3(m):
    """Independent 6-term permutation-sum determinant."""
    d = m.data
    return (
        d[0][0] * d[1][1] * d[2][2]
        - d[0][0] * d[1][2] * d[2][1]
        - d[0][1] * d[1][0] * d[2][2]
        + d[0][1] * d[1][2] * d[2][0]
        + d[0][2] * d[1][0] * d[2][1]
        - d[0][2] * d[1][1] * d[2][0]
    )


def reference_rank(m):
    """Independent rank oracle: full reduced row echelon from scratch."""
    work = [[Fraction(x) for x in row] for row in m.data]
    rows, cols = len(work), len(work[0])
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        lead = work[r][c]
        work[r] = [x / lead for x in work[r]]
        for i in range(rows):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    return sum(1 for row in work if any(x != 0 for x in row))


def random_matrix(rng, rows, cols, span=64):
    return Matrix(
        [
            [Fraction(rng.below(2 * span + 1) - span, rng.below(8) + 1) for _ in range(cols)]
            for _ in range(rows)
        ]
    )


class TestScalarCanonicalForm:
    def test_arithmetic_keeps_reduced_positive_denominator(self):
        import math

        rng = SplitMix64(10)
        for _ in range(300):
            x = Fraction(rng.below(401) - 200, rng.below(99) + 1)
            y = Fraction(rng.below(401) - 200, rng.below(99) + 1)
            results = [x + y, x - y, x * y]
            if y != 0:
                results.append(x / y)
            for r in results:
                assert r.denominator > 0
                assert math.gcd(abs(r.numerator), r.denominator) == 1


class TestMatrix:
    def test_rectangular_enforced(self):
        with pytest.raises(DimensionError):
            Matrix([[1, 2], [3]])

    def test_entries_canonical(self):
        m = Matrix([["2/4", "0.5"], [3, "-6/4"]])
        assert m[0, 0] == Fraction(1, 2)
        assert m[0, 1] == Fraction(1, 2)
        assert m[1, 1] == Fraction(-3, 2)

    def test_matmul_shapes(self):
        a = Matrix([[1, 2, 3]])
        b = Matrix([[1], [1], [1]])
        assert (a @ b)[0, 0] == 6
        with pytest.raises(DimensionError):
            b @ b

    def test_empty_inner_dimension_product_is_zero(self):
        left = Matrix.zeros(3, 0)
        right = Matrix.zeros(0, 4)
        product = left @ right
        assert product.shape == (3, 4)
        assert all(x == 0 for row in product.data for x in row)

    def test_block_diag(self):
        m = block_diag([Matrix([[1]]), Matrix([[2, 3]])])
        assert m == Matrix([[1, 0, 0], [0, 2, 3]])


class TestRank:
    def test_identity(self):
        assert rank(Matrix.identity(3)) == 3

    def test_zero(self):
        assert rank(Matrix.zeros(4, 5)) == 0

    def test_h7_slack_rank_3(self, h7_slack):
        assert rank(h7_slack) == 3
        assert reference_rank(h7_slack) == 3

    def test_matches_reference_oracle(self):
        rng = SplitMix64(11)
        for _ in range(200):
            m = random_matrix(rng, rng.below(5) + 1, rng.below(5) + 1, span=4)
            assert rank(m) == reference_rank(m)

    def test_rank_equals_rank_of_transpose(self):
        rng = SplitMix64(12)
        for _ in range(200):
            m = random_matrix(rng, rng.below(6) + 1, rng.below(6) + 1, span=3)
            assert rank(m) == rank(m.transpose())


def oracle_pivot_columns(m):
    """Each column that is not in the span of the columns before it: the
    columns that raise ``reference_rank`` when added to those kept so far."""
    pivots = []
    for j in range(m.cols if m.rows else 0):
        if reference_rank(Matrix([[row[k] for k in pivots + [j]] for row in m.data])) > len(pivots):
            pivots.append(j)
    return tuple(pivots)


@st.composite
def pivot_inputs(draw):
    """Matrices of 0..6 rows and 1..7 columns with small signed entries,
    zero columns and multiples and sums of earlier columns."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 7))
    entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    columns = []
    for _ in range(cols):
        kind = draw(st.sampled_from(["free", "free", "zero", "multiple", "sum"]))
        if kind == "zero" or (kind != "free" and not columns):
            col = [Fraction(0)] * rows
        elif kind == "multiple":
            lam = draw(entry)
            col = [lam * x for x in draw(st.sampled_from(columns))]
        elif kind == "sum":
            col = [x + y for x, y in zip(draw(st.sampled_from(columns)), draw(st.sampled_from(columns)))]
        else:
            col = [draw(entry) for _ in range(rows)]
        columns.append(col)
    return Matrix(list(zip(*columns))) if rows else Matrix.zeros(0, cols)


@settings(max_examples=300)
@given(pivot_inputs(), st.sampled_from([None, 1, 2, 3, 4]))
def test_pivot_columns_match_greedy_oracle(m, cap):
    """Capped and whole, fresh and kept, and ``rank`` is their count."""
    expected = oracle_pivot_columns(m)
    assert pivot_columns(m, cap) == expected[:cap] and rank(m, cap) == len(expected[:cap])
    assert pivot_columns(m) == expected and rank(m) == len(expected)
    assert pivot_columns(m, cap) == expected[:cap] and rank(m, cap) == len(expected[:cap])
    fresh = Matrix._raw(m.data, m.rows, m.cols)
    assert rank(fresh, cap) == len(pivot_columns(fresh, cap)) == len(expected[:cap])


def test_pivot_columns_over_driver_corpus():
    """The same over the driver's splitmix corpus, either way up."""
    from test_driver_properties import splitmix_corpus

    for a in splitmix_corpus():
        for m in (a, a.transpose()):
            expected = oracle_pivot_columns(m)
            assert pivot_columns(m) == expected and rank(m) == len(expected)
            assert rank(m, 2) == len(pivot_columns(Matrix(m.data), 2)) == min(2, len(expected))


class TestSolve:
    def test_identity(self):
        b = [Fraction(5), Fraction(-1, 3), Fraction(0)]
        assert solve(Matrix.identity(3), b) == b

    def test_zero_matrix_inconsistent(self):
        result = solve(Matrix.zeros(3, 3), [0, 2, 0])
        assert isinstance(result, Inconsistency)
        assert result.row == 1

    def test_barycentric_coefficients_sum_to_one(self):
        # point strictly inside the triangle (0,0), (4,0), (0,4)
        system = Matrix([[1, 1, 1], [0, 4, 0], [0, 0, 4]])
        coeffs = solve(system, [1, 1, 2])
        assert sum(coeffs) == 1
        assert all(c >= 0 for c in coeffs)
        for i in range(3):
            got = sum(system.data[i][j] * coeffs[j] for j in range(3))
            assert got == [1, 1, 2][i]

    def test_substitution_property(self):
        rng = SplitMix64(14)
        for _ in range(200):
            rows, cols = rng.below(5) + 1, rng.below(5) + 1
            a = random_matrix(rng, rows, cols, span=5)
            b = [Fraction(rng.below(11) - 5) for _ in range(rows)]
            x = solve(a, b)
            if isinstance(x, Inconsistency):
                assert 0 <= x.row < rows
            else:
                for i in range(rows):
                    assert sum(a.data[i][j] * x[j] for j in range(cols)) == b[i]

    def test_underdetermined_consistent(self):
        a = Matrix([[1, 1, 1]])
        x = solve(a, [7])
        assert sum(x) == 7


def test_product_difference_names_first_entry_in_row_order():
    """Row-major order, and the product's value at the hit: with the
    identity as left factor the product is the right factor itself."""
    a = Matrix([[1, 2, 3], [4, 5, 6]])
    eye = Matrix.identity(2)
    assert product_difference(eye, a, a) is None
    assert product_difference(eye, a, Matrix([[1, 2, 3], [4, 0, 0]])) == (1, 1, 5)
    assert product_difference(eye, a, Matrix([[1, 2, 0], [0, 5, 6]])) == (0, 2, 3)


# -- the capped rank: a refusal of rank >= cap stops at the cap-th pivot -----


def random_square(rng, side, bound):
    return Matrix([[rng.below(bound) for _ in range(side)] for _ in range(side)])


def spy_pivots(monkeypatch):
    """The pivot count of every elimination ``rank`` runs."""
    counts = []
    real = linalg._eliminate

    def counted(*args):
        result = real(*args)
        counts.append(len(result[1]))
        return result

    monkeypatch.setattr(linalg, "_eliminate", counted)
    return counts


def test_capped_rank_makes_at_most_cap_pivots(monkeypatch):
    m = random_square(SplitMix64(90), 40, 10**6)
    pivots = spy_pivots(monkeypatch)
    assert rank(m, cap=4) == 4 and pivots == [4]
    assert getattr(m, "_pivots", None) is None  # a capped prefix is not all of them
    assert rank(m) == 40 and pivots == [4, 40] and reference_rank(m) == 40
    assert rank(m, cap=4) == 4 and rank(m, cap=50) == 40 and pivots == [4, 40]


def test_capped_rank_below_the_cap_is_kept(monkeypatch):
    m = Matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    pivots = spy_pivots(monkeypatch)
    assert rank(m, cap=4) == 2 and m._pivots == (0, 1)
    assert rank(m) == 2 and pivots == [2]


def test_refusal_stops_at_the_fourth_pivot(monkeypatch):
    """``nn_factor`` refuses a full-rank 40x40 input after 4 pivots."""
    m = random_square(SplitMix64(91), 40, 10**6)
    pivots = spy_pivots(monkeypatch)
    with pytest.raises(RankError, match=r"^input has rank at least 4; only ranks 0\.\.3 are supported$"):
        nn_factor(m)
    assert pivots == [4]


def test_low_rank_refusal_stops_at_the_third_pivot(monkeypatch):
    """``factor_low_rank`` refuses a full-rank 40x40 input after 3 pivots."""
    m = random_square(SplitMix64(92), 40, 10**6)
    pivots = spy_pivots(monkeypatch)
    with pytest.raises(RankError, match=r"^low-rank factorization requires rank <= 2, "
                                        r"got rank at least 3$"):
        factor_low_rank(m)
    assert pivots == [3]


def test_rank_memo_is_read_before_the_cap(monkeypatch, h7_slack):
    """A slack matrix arrives with its rank kept: no elimination to refuse
    or accept it."""
    assert rank(h7_slack) == 3
    pivots = spy_pivots(monkeypatch)
    assert rank(h7_slack, cap=4) == 3 and rank(h7_slack, cap=3) == 3
    assert pivots == []


def test_numpy_integers_are_python_ints_inside():
    """A NumPy integer entry becomes a Fraction of Python ints, so the
    integer kernels never run in wrapping int64 arithmetic."""
    np = pytest.importorskip("numpy")
    import warnings

    big = 2**62
    assert type(linalg.as_scalar(np.int64(big)).numerator) is int
    assert linalg.as_scalar(np.int64(big)) * 4 == 2**64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fact = nn_factor([[np.int64(big), np.int64(3)], [np.int64(5), np.int64(big)]])
    expected = nn_factor([[big, 3], [5, big]])
    assert (fact.left, fact.right, fact.trace) == (expected.left, expected.right, expected.trace)
