"""The six-parameter canonical family: construction, symmetry, step,
orbit, and the explicit inner-dimension-6 factorizations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactnmf import canonical
from exactnmf.canonical import (
    CanonicalParams,
    MonomialMatrix,
    canonical_matrix,
    base_points,
    direct_factor,
    factor_canonical,
    is_admissible,
    middle_min_condition,
    orbit,
    reversal,
    step,
)
from exactnmf.errors import DimensionError, NotAdmissible
from exactnmf.generate import random_admissible_params
from exactnmf.linalg import Matrix
from exactnmf.rng import SplitMix64

from test_linalg import leibniz_det3
from test_linalg_kernel import matrices, sides


def params_of(*values):
    return CanonicalParams.of(*values)


ZERO_PARAMS = params_of(0, 0, 0, 0, 0, 0)


def oracle_matrix(p: CanonicalParams) -> Matrix:
    """Independent route to the canonical matrix: rebuild the base rows
    here and take every entry as a Leibniz determinant of the row triple
    (i-1, j-2, j-1)."""
    one, zero = Fraction(1), Fraction(0)
    w = [
        (zero, one, one),
        (zero, zero, one),
        (one, zero, zero),
        (one, one, zero),
        (p.a1, one, p.b1),
        (p.a2, one, p.b2),
        (p.a3, one, p.b3),
    ]
    rep = lambda x: (x - 1) % 7 + 1  # noqa: E731
    rows = []
    for i in range(1, 8):
        row = []
        for j in range(1, 8):
            triple = Matrix([w[rep(i - 1) - 1], w[rep(j - 2) - 1], w[rep(j - 1) - 1]])
            row.append(leibniz_det3(triple))
        rows.append(row)
    return Matrix(rows)


class TestBasePoints:
    def test_second_row_fixed(self, h7_params):
        for p in (ZERO_PARAMS, h7_params):
            assert base_points(p).row(1) == (0, 0, 1)

    def test_zero_params_parameter_rows(self):
        w = base_points(ZERO_PARAMS)
        for i in (4, 5, 6):
            assert w.row(i) == (0, 1, 0)

    def test_direct_placement(self):
        p = params_of("5/2", 0, 0, "1/3", 0, 0)
        assert base_points(p).row(4) == (Fraction(5, 2), 1, Fraction(1, 3))


class TestCanonicalMatrix:
    def test_fixed_unit_entries(self, h7_params):
        v = canonical_matrix(h7_params)
        assert v[1, 3] == 1 and v[1, 4] == 1 and v[3, 2] == 1  # (2,4),(2,5),(4,3)

    def test_parameter_entries(self, h7_params):
        p = h7_params
        v = canonical_matrix(p)
        assert v[3, 1] == 1 - p.b3  # (4,2)
        assert v[5, 2] == p.a1  # (6,3)
        assert v[6, 2] == p.a2  # (7,3)
        assert v[0, 2] == p.a3  # (1,3)

    def test_structural_zeros(self):
        rng = SplitMix64(21)
        for p in (ZERO_PARAMS, random_admissible_params(rng)):
            v = canonical_matrix(p)
            for j in range(1, 8):
                jj = (j - 1) % 7 + 1
                prev = (j - 2) % 7 + 1
                assert v[jj - 1, j - 1] == 0
                assert v[prev - 1, j - 1] == 0

    def test_matches_leibniz_oracle(self):
        rng = SplitMix64(22)
        for _ in range(25):
            p = random_admissible_params(rng)
            assert canonical_matrix(p) == oracle_matrix(p)


class TestAdmissibility:
    def test_zero_params_not_admissible(self):
        assert not is_admissible(ZERO_PARAMS)

    def test_h7_params_admissible_with_oracle(self, h7_params):
        assert is_admissible(h7_params)
        v = oracle_matrix(h7_params)
        for i in range(1, 8):
            for j in range(1, 8):
                if not canonical.is_structural_zero(i, j):
                    assert v[i - 1, j - 1] > 0

    def test_a1_below_a2_not_admissible(self):
        # entry (3,7) equals a1 - a2 and must be positive
        p = params_of("1/4", "1/2", "1/8", "1/10", "1/5", "1/3")
        assert not is_admissible(p)


class TestReversal:
    def test_tuple_involution(self, h7_params):
        mirror, _, _ = reversal(h7_params)
        back, _, _ = reversal(mirror)
        assert back == h7_params

    def test_preserves_admissibility(self):
        rng = SplitMix64(23)
        for _ in range(25):
            p = random_admissible_params(rng)
            mirror, _, _ = reversal(p)
            assert is_admissible(mirror)

    def test_relabeling_identity(self):
        rng = SplitMix64(24)
        for _ in range(25):
            p = random_admissible_params(rng)
            mirror, row_perm, col_perm = reversal(p)
            lhs = row_perm.to_matrix() @ canonical_matrix(mirror) @ col_perm.to_matrix()
            assert lhs == canonical_matrix(p)


class TestStep:
    def test_new_b_recurrences(self):
        rng = SplitMix64(25)
        for _ in range(25):
            p = random_admissible_params(rng)
            nxt, _, _ = step(p)
            assert nxt.b1 == p.a3
            assert nxt.b2 == p.a3 / p.a1
            assert nxt.b3 == p.a3 / p.a2

    def test_conjugator_entries(self, h7_params):
        p = h7_params
        _, q1, q2 = step(p)
        q1m, q2m = q1.to_matrix(), q2.to_matrix()
        assert q1m[6, 0] == p.a2 / p.a3
        assert q2m[0, 6] == p.a1 * p.a2 * (1 - p.b3) / p.a3

    def test_conjugation_identity_h7(self, h7_params):
        nxt, q1, q2 = step(h7_params)
        lhs = q1.to_matrix() @ canonical_matrix(nxt) @ q2.to_matrix()
        assert lhs == canonical_matrix(h7_params)

    def test_rejects_non_admissible(self):
        with pytest.raises(NotAdmissible):
            step(ZERO_PARAMS)

    def test_stepped_tuple_admissible(self):
        rng = SplitMix64(26)
        for _ in range(25):
            nxt, _, _ = step(random_admissible_params(rng))
            assert is_admissible(nxt)


class TestOrbit:
    def test_zero_steps(self, h7_params):
        assert orbit(h7_params, 0) == h7_params

    def test_period_seven(self, h7_params):
        assert orbit(h7_params, 7) == h7_params

    def test_period_fourteen(self, h7_params):
        assert orbit(h7_params, 14) == h7_params

    def test_propagates_non_admissible(self):
        with pytest.raises(NotAdmissible):
            orbit(ZERO_PARAMS, 1)


class TestSignIdentities:
    def test_three_closed_forms(self):
        rng = SplitMix64(27)
        for _ in range(25):
            p = random_admissible_params(rng)
            a1, a2, a3, b1, b2, b3 = p.astuple()
            vm = canonical_matrix(p)
            v = lambda i, j: vm[i - 1, j - 1]  # noqa: E731
            s1, s2, s6 = orbit(p, 1), orbit(p, 2), orbit(p, 6)
            assert s2.a2 + s2.b2 - s2.a1 - s2.b1 == (
                (-a3 + a2 * (1 - b3)) * v(3, 2) * v(2, 1)
            ) / (v(3, 1) * v(7, 3) * v(4, 2) * v(5, 2))
            assert s6.a3 + s6.b3 - s6.a2 - s6.b2 == (
                v(4, 6) * (-a3 + a1 * (1 - b3))
            ) / (v(1, 5) * v(3, 6))
            assert s1.a2 + s1.b2 - s1.a1 - s1.b1 == (
                v(1, 3) * (b1 + (a1 - 1) * b3)
            ) / (v(6, 3) * v(4, 2))


class TestDirectFactor:
    def draw_condition_params(self, rng):
        while True:
            p = random_admissible_params(rng)
            if middle_min_condition(p):
                return p

    def test_displayed_entries(self):
        rng = SplitMix64(28)
        p = self.draw_condition_params(rng)
        vm = canonical_matrix(p)
        v = lambda i, j: vm[i - 1, j - 1]  # noqa: E731
        cert = direct_factor(p)
        assert cert.left.row(1) == (
            0,
            0,
            0,
            1,
            p.a1 - p.a2 + p.b1 - p.b2,
            1,
        )
        assert cert.left[4, 0] == -p.a2 + p.a3 - p.b2 + p.b3
        assert cert.right[0, 1] == v(3, 2) / v(3, 1)
        assert cert.right[3, 5] == v(5, 7) / v(4, 7)

    def test_product_oracle(self):
        rng = SplitMix64(29)
        for _ in range(15):
            p = self.draw_condition_params(rng)
            cert = direct_factor(p)
            assert cert.left @ cert.right == canonical_matrix(p)
            assert cert.left.is_nonnegative() and cert.right.is_nonnegative()

    def test_condition_failure_returns_none(self):
        rng = SplitMix64(30)
        while True:
            p = random_admissible_params(rng)
            if not middle_min_condition(p):
                break
        assert direct_factor(p) is None

    def test_rejects_non_admissible(self):
        with pytest.raises(NotAdmissible):
            direct_factor(ZERO_PARAMS)


class TestFactorCanonical:
    def test_condition_params_take_zero_steps(self):
        rng = SplitMix64(31)
        while True:
            p = random_admissible_params(rng)
            if middle_min_condition(p):
                break
        cert = factor_canonical(p)
        assert cert.steps_taken == 0 and not cert.used_reversal
        direct = direct_factor(p)
        assert cert.left == direct.left and cert.right == direct.right

    def test_h7_params(self, h7_params):
        cert = factor_canonical(h7_params)
        assert cert.left.shape == (7, 6) and cert.right.shape == (6, 7)
        assert cert.left @ cert.right == canonical_matrix(h7_params)
        assert cert.left.is_nonnegative() and cert.right.is_nonnegative()

    def test_random_search_bounded(self):
        rng = SplitMix64(32)
        for _ in range(100):
            p = random_admissible_params(rng)
            cert = factor_canonical(p)
            assert cert.steps_taken < canonical.MAX_SEARCH_STEPS
            assert cert.left @ cert.right == canonical_matrix(p)
            assert cert.left.is_nonnegative() and cert.right.is_nonnegative()

    def test_rejects_non_admissible(self):
        with pytest.raises(NotAdmissible):
            factor_canonical(ZERO_PARAMS)

    def test_mirror_branch_composition(self, monkeypatch, h7_params):
        # No natural input is known to need the mirror fallback, so force
        # it: fail the condition for the whole forward orbit, then behave
        # normally.  The final exact product check validates the mirror
        # relabeling composition.
        real = canonical.middle_min_condition
        calls = {"n": 0}

        def starved(params):
            calls["n"] += 1
            if calls["n"] <= 7:
                return False
            return real(params)

        monkeypatch.setattr(canonical, "middle_min_condition", starved)
        cert = factor_canonical(h7_params)
        assert cert.used_reversal
        assert cert.left @ cert.right == canonical_matrix(h7_params)
        assert cert.left.is_nonnegative() and cert.right.is_nonnegative()


class TestMonomialMatrix:
    def test_inverse(self):
        m = MonomialMatrix((2, 0, 1), (Fraction(2), Fraction(1, 3), Fraction(5)))
        assert m.to_matrix() @ m.inverse().to_matrix() == Matrix.identity(3)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            MonomialMatrix((0, 1), (Fraction(1), Fraction(0)))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            MonomialMatrix((0, 0, 1))


# -- the integer paths against the Fraction code they replaced --------------


def fraction_canonical_matrix(params):
    """``canonical_matrix`` as it was on Fraction base points, verbatim."""
    w = base_points(params).data
    out = [[None] * canonical.SIZE for _ in range(canonical.SIZE)]
    for j in range(1, canonical.SIZE + 1):
        c = canonical._cross3(w[canonical._rep7(j - 2) - 1], w[canonical._rep7(j - 1) - 1])
        for i in range(1, canonical.SIZE + 1):
            r = w[canonical._rep7(i - 1) - 1]
            out[i - 1][j - 1] = r[0] * c[0] + r[1] * c[1] + r[2] * c[2]
    return Matrix(out)


def fraction_is_admissible(params):
    """``is_admissible`` as it was on Fraction base points, verbatim."""
    w = base_points(params).data
    for j in range(1, canonical.SIZE + 1):
        c = canonical._cross3(w[canonical._rep7(j - 2) - 1], w[canonical._rep7(j - 1) - 1])
        for i in range(1, canonical.SIZE + 1):
            r = w[canonical._rep7(i - 1) - 1]
            x = r[0] * c[0] + r[1] * c[1] + r[2] * c[2]
            if canonical.is_structural_zero(i, j):
                if x != 0:
                    return False
            elif x <= 0:
                return False
    return True


tiny = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(10**6, 10**30))
wild = st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30))


@st.composite
def parameter_tuples(draw):
    """Tuples with 1 > a1 > a2 > a3 > 0 and 0 < b1 < b2 < b3 < 1 (often
    admissible), then moved: every parameter by a tiny large-denominator
    offset, or one parameter replaced by any rational, copied onto
    another, or set to 0 or 1 (which puts canonical entries exactly on
    zero).  Drawn without calling ``is_admissible``."""
    units = st.lists(
        st.integers(1, 4095).map(lambda k: Fraction(k, 4096)), min_size=3, max_size=3, unique=True
    )
    a3, a2, a1 = sorted(draw(units))
    b1, b2, b3 = sorted(draw(units))
    values = [a1, a2, a3, b1, b2, b3]
    move = draw(st.sampled_from(["none", "tiny", "wild", "copy", "zero", "one"]))
    i, j = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    if move == "tiny":
        values = [x + draw(tiny) for x in values]
    elif move == "wild":
        values[i] = draw(wild)
    elif move == "copy":
        values[j] = values[i]
    elif move != "none":
        values[i] = Fraction(move == "one")
    return CanonicalParams(*values)


@settings(max_examples=400)
@given(parameter_tuples())
def test_integer_canonical_matches_fraction_code(p):
    assert is_admissible(p) == fraction_is_admissible(p)
    assert canonical_matrix(p) == fraction_canonical_matrix(p)


@st.composite
def monomials(draw, size):
    scales = st.builds(Fraction, st.integers(1, 10**30), st.integers(1, 10**30))
    perm = draw(st.permutations(range(size)))
    return MonomialMatrix(perm, [draw(scales) for _ in range(size)])


@settings(max_examples=300)
@given(st.data())
def test_apply_matches_dense_product(data):
    n = data.draw(st.integers(1, 8))
    q = data.draw(monomials(n))
    m = data.draw(matrices(rows=st.just(n)))
    assert q.apply_left(m) == q.to_matrix() @ m
    m = data.draw(matrices(cols=st.just(n)))
    assert q.apply_right(m) == m @ q.to_matrix()
    m = data.draw(matrices(rows=sides.filter(lambda r: r != n)))
    with pytest.raises(DimensionError):
        q.apply_left(m)
    with pytest.raises(DimensionError):
        q.apply_right(m.transpose())
