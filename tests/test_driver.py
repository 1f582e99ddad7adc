"""The m x n driver: chunking, certificates, and re-verification."""

from fractions import Fraction

import pytest

from exactnmf.driver import (
    Factorization,
    inner_dimension_bound,
    nn_factor,
    verify_factorization,
)
from exactnmf.canonical import MonomialMatrix
from exactnmf.errors import ExactNMFError, NegativeEntryError, RankError
from exactnmf.generate import random_convex_polygon, random_rank_two
from exactnmf.linalg import Matrix, rank
from exactnmf.polygon import slack_matrix
from exactnmf.rng import SplitMix64


def ngon_slack(seed, n):
    rng = SplitMix64(seed)
    return slack_matrix(random_convex_polygon(rng, n)).matrix


class TestBound:
    @pytest.mark.parametrize(
        "n,expected", [(1, 1), (6, 6), (7, 6), (8, 7), (14, 12), (50, 43)]
    )
    def test_values(self, n, expected):
        assert inner_dimension_bound(n, n) == expected

    def test_chunk_arithmetic_identity(self):
        # 6*floor(m/7) + (m mod 7) == ceil(6m/7) for every m
        for m in range(1, 200):
            q, r = divmod(m, 7)
            assert 6 * q + r == inner_dimension_bound(m, m)


class TestNNFactor:
    def test_small_matrix_identity_branch(self):
        a = ngon_slack(61, 6)
        assert rank(a) == 3 and a.rows == 6
        fact = nn_factor(a)
        assert fact.inner_dim == 6
        assert verify_factorization(a, fact).ok

    def test_heptagon_slack(self, h7_slack):
        fact = nn_factor(h7_slack)
        assert fact.inner_dim == 6
        assert fact.bound == 6
        assert verify_factorization(h7_slack, fact).ok

    def test_ten_gon(self):
        a = ngon_slack(62, 10)
        fact = nn_factor(a)
        assert fact.inner_dim <= 9  # one 7-group (<=6) plus 3 remainder rows
        assert fact.bound == 9
        assert verify_factorization(a, fact).ok

    def test_fourteen_gon(self):
        a = ngon_slack(63, 14)
        fact = nn_factor(a)
        assert fact.inner_dim <= 12
        assert fact.bound == 12
        assert verify_factorization(a, fact).ok

    def test_transpose_symmetry(self):
        a = ngon_slack(64, 9)
        wide = Matrix([a.row(i) for i in range(7)])  # 7 x 9, rank 3
        tall = wide.transpose()
        fact_wide = nn_factor(wide)
        fact_tall = nn_factor(tall)
        assert verify_factorization(wide, fact_wide).ok
        assert verify_factorization(tall, fact_tall).ok
        assert fact_wide.bound == fact_tall.bound

    def test_zero_rows_and_columns_round_trip(self, h7_slack):
        rows = h7_slack.tolist()
        rows.insert(2, [Fraction(0)] * 7)
        padded = Matrix(rows)
        cols = padded.columns()
        cols.insert(5, (Fraction(0),) * 8)
        padded = Matrix.from_columns(cols)
        fact = nn_factor(padded)
        assert verify_factorization(padded, fact).ok
        assert all(x == 0 for x in fact.left.row(2))
        assert all(x == 0 for x in fact.right.column(5))

    def test_zero_matrix(self):
        a = Matrix.zeros(5, 8)
        fact = nn_factor(a)
        assert fact.inner_dim == 0
        assert verify_factorization(a, fact).ok

    def test_rank_two_delegates(self):
        rng = SplitMix64(65)
        a = random_rank_two(rng, 9, 9)
        fact = nn_factor(a)
        assert fact.inner_dim == 2
        assert verify_factorization(a, fact).ok

    def test_rank_four_rejected(self):
        with pytest.raises(RankError):
            nn_factor(Matrix.identity(4))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            nn_factor(Matrix([[1, -1], [0, 1]]))

    def test_negative_entry_error_is_structured(self):
        assert issubclass(NegativeEntryError, ExactNMFError)
        with pytest.raises(NegativeEntryError, match=r"input matrix has negative entry -1 at \(0, 1\)"):
            nn_factor(Matrix([[1, -1], [0, 1]]))
        with pytest.raises(NegativeEntryError):
            MonomialMatrix((0, 1), (Fraction(1), Fraction(-2)))

    def test_trace_records_chunks(self):
        a = ngon_slack(66, 16)
        fact = nn_factor(a)
        chunk_records = [t for t in fact.trace if "rows" in t]
        assert chunk_records
        covered = sorted(
            (t["rows"][0], t["rows"][1]) for t in chunk_records
        )
        assert covered[0][0] == 0
        assert covered[-1][1] == 16

    def test_accepts_nested_lists(self):
        fact = nn_factor([[1, 2], [2, 4]])
        assert fact.inner_dim == 1
        assert verify_factorization([[1, 2], [2, 4]], fact).ok

    def test_tall_rank3_uses_transpose_branch(self):
        a = ngon_slack(68, 8)
        tall = Matrix([a.row(i) for i in range(4)]).transpose()  # 8 x 4, rank 3
        fact = nn_factor(tall)
        assert fact.inner_dim == 4
        assert fact.bound == inner_dimension_bound(8, 4)
        assert verify_factorization(tall, fact).ok
        assert any(t.get("method") == "transpose" for t in fact.trace)


class TestVerifyFactorization:
    def test_passes_on_real_output(self, h7_slack):
        fact = nn_factor(h7_slack)
        assert verify_factorization(h7_slack, fact).ok

    def test_negated_entry_reported(self, h7_slack):
        fact = nn_factor(h7_slack)
        rows = fact.left.tolist()
        # negate the first strictly positive entry
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if x > 0:
                    rows[i][j] = -x
                    spot = (i, j)
                    break
            else:
                continue
            break
        tampered = Factorization(
            Matrix(rows), fact.right, fact.inner_dim, fact.bound, fact.trace
        )
        report = verify_factorization(h7_slack, tampered)
        assert not report.ok
        assert any(
            "negative entry" in failure and str(spot) in failure
            for failure in report.failures
        )
        assert any("disagrees with input" in failure for failure in report.failures)

    def test_first_disagreeing_entry_named(self, h7_slack):
        fact = nn_factor(h7_slack)
        rows = h7_slack.tolist()
        rows[2][3] += 1
        rows[5][1] += 1
        report = verify_factorization(Matrix(rows), fact)
        assert report.failures == [
            f"product disagrees with input at (2, 3): {h7_slack[2, 3]} != {rows[2][3]}"
        ]

    def test_swapped_factors_report_dimensions(self):
        a = ngon_slack(67, 9)
        wide = Matrix([a.row(i) for i in range(7)])  # 7 x 9
        fact = nn_factor(wide)
        swapped = Factorization(
            fact.right, fact.left, fact.inner_dim, fact.bound, fact.trace
        )
        report = verify_factorization(wide, swapped)
        assert not report.ok
        assert any("rows" in f or "columns" in f for f in report.failures)

    def test_bound_violation_reported(self, h7_slack):
        fact = nn_factor(h7_slack)
        lying = Factorization(fact.left, fact.right, fact.inner_dim, 99, fact.trace)
        report = verify_factorization(h7_slack, lying)
        assert not report.ok
        assert any("bound" in f for f in report.failures)
