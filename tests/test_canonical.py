"""The six-parameter canonical family: construction, symmetry, step,
orbit, and the explicit inner-dimension-6 factorizations."""

import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactnmf import canonical
from exactnmf.canonical import (
    CanonicalParams,
    MonomialMatrix,
    Rank6Certificate,
    canonical_matrix,
    direct_factor,
    factor_canonical,
    is_admissible,
    middle_min_condition,
    orbit,
    reversal,
    step,
)
from exactnmf.errors import DimensionError, InternalError, NotAdmissible
from exactnmf.generate import random_admissible_params
from exactnmf.linalg import Matrix
from exactnmf.rng import SplitMix64

from conftest import primitive_columns
from test_linalg import leibniz_det3
from test_linalg_kernel import matrices, sides


def params_of(*values):
    return CanonicalParams.of(*values)


ZERO_PARAMS = params_of(0, 0, 0, 0, 0, 0)


def base_points(params: CanonicalParams) -> Matrix:
    """The 7x3 matrix of homogeneous base points.

    Rows 1-4 are fixed 0/1 points; rows 5, 6, 7 are (a_i, 1, b_i).
    """
    one, zero = Fraction(1), Fraction(0)
    return Matrix(
        [
            (zero, one, one),
            (zero, zero, one),
            (one, zero, zero),
            (one, one, zero),
            (params.a1, one, params.b1),
            (params.a2, one, params.b2),
            (params.a3, one, params.b3),
        ]
    )


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
        assert (cert.left, cert.right) == primitive_columns(direct.left, direct.right)

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
        monkeypatch.setattr(canonical, "_middle_min", starved(canonical._middle_min))
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


def starved(condition, failures=7):
    """``condition`` made to fail its first ``failures`` calls: the whole
    forward orbit of a search, which then moves to the mirror tuple."""
    calls = {"n": 0}

    def wrapped(*args):
        calls["n"] += 1
        return calls["n"] > failures and condition(*args)

    return wrapped


# -- the integer search against the Fraction code it replaced ---------------
#
# ``_step``, ``_direct_factor`` and ``_factor_canonical`` as they were on
# Fraction tuples, verbatim but for the names of what they call: they read
# the canonical matrix, admissibility and the middle-min condition from the
# Fraction oracles here, and a product ``q @ r`` of monomials, which
# ``MonomialMatrix`` no longer defines, is ``monomial_product(q, r)``.


def fraction_middle_min(params):
    """``middle_min_condition`` as it was on Fraction tuples, verbatim."""
    s1 = params.a1 + params.b1
    s2 = params.a2 + params.b2
    s3 = params.a3 + params.b3
    return s1 >= s2 and s3 >= s2


def monomial_product(q, r):
    """The monomial product ``q @ r``: row i of ``q`` picks row perm[i] of
    ``r``."""
    return MonomialMatrix._raw(
        tuple(r.perm[p] for p in q.perm),
        tuple(s * r.scales[p] for p, s in zip(q.perm, q.scales)),
    )


_Q1_PERM = (1, 2, 3, 4, 5, 6, 0)
_Q2_PERM = (6, 0, 1, 2, 3, 4, 5)


def fraction_step(params: CanonicalParams):
    """``step`` for a tuple its caller proved admissible, which makes the
    divisors 1-b3, a1, a2, a3 strictly positive.  Tests only the tuple it
    makes, once, since the next step divides by its entries."""
    a1, a2, a3, b1, b2, b3 = params.astuple()
    c = 1 - b3
    nxt = CanonicalParams(
        (1 - a3 - b3) / c,
        (a1 - a1 * b3 - a3 + a3 * b1) / (a1 - a1 * b3),
        (a2 - a2 * b3 - a3 + a3 * b2) / (a2 - a2 * b3),
        a3,
        a3 / a1,
        a3 / a2,
    )
    if not fraction_is_admissible(nxt):
        raise InternalError(f"stepped tuple lost admissibility: {params} -> {nxt}")
    one = Fraction(1)
    q1 = MonomialMatrix._raw(_Q1_PERM, (one, one, 1 / c, 1 / a3, 1 / a3, a1 / a3, a2 / a3))
    q2 = MonomialMatrix._raw(
        _Q2_PERM, (a1 * a2 * c / a3, a2 * c, a3 * c, a3, one, c / a3, a1 * c / a3)
    )
    return nxt, q1, q2


def fraction_direct_factor(params: CanonicalParams, vm: Matrix):
    """(left, right) of ``direct_factor`` for an admissible tuple that meets
    the middle-min condition, ``vm`` its canonical matrix; tests nothing."""
    a1, a2, a3, b1, b2, b3 = params.astuple()
    v = lambda i, j: vm.data[i - 1][j - 1]  # noqa: E731 - 1-based view
    one, zero = Fraction(1), Fraction(0)
    left = (
        (zero, zero, one, v(4, 1) + v(4, 7), v(6, 1), zero),
        (zero, zero, zero, one, a1 - a2 + b1 - b2, one),
        (v(3, 1), zero, zero, one, v(3, 7), zero),
        (v(4, 1), one, zero, zero, v(4, 7), zero),
        (-a2 + a3 - b2 + b3, one, zero, zero, zero, one),
        (v(6, 1), v(3, 1) + v(3, 7), one, zero, zero, zero),
        (zero, v(3, 1), one, v(4, 7), zero, zero),
    )
    right = (
        (one, v(3, 2) / v(3, 1), zero, zero, zero, zero, zero),
        (zero, v(2, 1) / v(3, 1), one, zero, zero, zero, zero),
        (zero, zero, v(1, 3), one, v(6, 5), zero, zero),
        (zero, zero, zero, zero, one, v(5, 7) / v(4, 7), zero),
        (zero, zero, zero, zero, zero, v(6, 5) / v(4, 7), one),
        (v(7, 2), zero, zero, one, zero, zero, v(5, 7)),
    )
    return Matrix._raw(left, 7, 6), Matrix._raw(right, 6, 7)


def fraction_factor_canonical(params: CanonicalParams, matrix: Matrix):
    """The search of ``factor_canonical`` for a tuple its caller proved
    admissible, ``matrix`` its canonical matrix: (q_left, cert, q_right)
    with ``matrix == q_left @ cert.left @ cert.right @ q_right``, ``cert``
    the direct factorization where the search stopped and the monomials
    every step and the mirror on the way there, composed for the caller
    to apply once."""
    identity = MonomialMatrix._raw(tuple(range(7)), (Fraction(1),) * 7)
    for mirrored in (False, True):
        current = params.reversed_tuple() if mirrored else params
        q_left = q_right = identity
        for t in range(7):
            if fraction_middle_min(current):
                vm = matrix if current is params else fraction_canonical_matrix(current)
                left, right = fraction_direct_factor(current, vm)
                if mirrored:
                    _, row_perm, col_perm = reversal(params)
                    q_left = monomial_product(row_perm, q_left)
                    q_right = monomial_product(q_right, col_perm)
                return q_left, Rank6Certificate(left, right, t, mirrored), q_right
            if t == 6:
                break  # a seventh step closes the period
            current, q1, q2 = fraction_step(current)
            # matrix == q_left @ canonical(current) @ q_right
            q_left, q_right = monomial_product(q_left, q1), monomial_product(q2, q_right)
    raise InternalError(
        f"no factorization within {canonical.MAX_SEARCH_STEPS} search steps for "
        f"{params}; this state is impossible for exact admissible input"
    )


def fraction_certificate(params: CanonicalParams) -> Rank6Certificate:
    """``factor_canonical`` as it was: the Fraction search, its monomials
    applied to the stopping tuple's factors."""
    q_left, cert, q_right = fraction_factor_canonical(params, fraction_canonical_matrix(params))
    return Rank6Certificate(
        q_left.apply_left(cert.left), q_right.apply_right(cert.right),
        cert.steps_taken, cert.used_reversal,
    )


def compacted(cert: Rank6Certificate) -> Rank6Certificate:
    """``cert`` through ``primitive_columns``: the certificate the library
    assembles from the same search."""
    return Rank6Certificate(*primitive_columns(cert.left, cert.right),
                            cert.steps_taken, cert.used_reversal)


def sample_admissible(seed, denominator):
    """A sorted random tuple over ``denominator`` that the Fraction oracle
    admits, by rejection."""
    rng = random.Random(seed)
    while True:
        a3, a2, a1 = sorted(Fraction(rng.randrange(1, denominator), denominator) for _ in range(3))
        b1, b2, b3 = sorted(Fraction(rng.randrange(1, denominator), denominator) for _ in range(3))
        p = CanonicalParams(a1, a2, a3, b1, b2, b3)
        if a1 + b1 < 1 and a3 + b3 < 1 and fraction_is_admissible(p):
            return p


# Boundary tuples to walk towards: a parameter set to 0 or 1, or a parameter
# copied onto its neighbour, each of which zeroes a canonical entry.
BOUNDARIES = [("set", i, x) for i in range(6) for x in (0, 1)] + [
    ("copy", i, j) for i, j in ((0, 1), (1, 2), (3, 4), (4, 5))
]


def towards(p, boundary, halvings):
    """(inside, outside): bisect ``halvings`` times on the segment from the
    admissible ``p`` to the tuple ``BOUNDARIES[boundary]`` makes of it;
    ``inside`` is the last point the Fraction oracle admits, ``outside``
    the first it rejects (the boundary tuple itself if none)."""
    kind, i, x = BOUNDARIES[boundary]
    target = list(p.astuple())
    target[i] = Fraction(x) if kind == "set" else target[x]
    point = lambda t: CanonicalParams(  # noqa: E731
        *(a + t * (b - a) for a, b in zip(p.astuple(), target)))
    lo, hi = Fraction(0), Fraction(1)
    for _ in range(halvings):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if fraction_is_admissible(point(mid)) else (lo, mid)
    return point(lo), point(hi)


def tie(p, i):
    """``p`` with a_i + b_i moved onto a2 + b2 (i = 1 or 3) through b_i: a
    tie of the middle-min condition, or None if that is not admissible."""
    values = list(p.astuple())
    values[i + 2] = p.a2 + p.b2 - values[i - 1]
    q = CanonicalParams(*values)
    return q if fraction_is_admissible(q) else None


@st.composite
def admissible_tuples(draw):
    """Admissible tuples over denominators 4096 or 2^40, often bisected
    towards a boundary tuple (some b_i = 0, b3 = 1, a3 = 0, a1 = a2, ...)
    for up to 80 halvings, so that the tuple is a tiny step from losing
    admissibility, with a tiny canonical entry and a large denominator,
    or moved onto a middle-min tie.  Admissibility is always the Fraction
    oracle's."""
    p = sample_admissible(draw(st.integers(0, 2**32)), draw(st.sampled_from([4096, 2**40])))
    halvings = draw(st.sampled_from([0, 1, 5, 30, 80]))
    if halvings:
        p, _ = towards(p, draw(st.integers(0, len(BOUNDARIES) - 1)), halvings)
    return draw(st.sampled_from([p, tie(p, 1) or p, tie(p, 3) or p]))


def scales_of(q):
    """The Fraction scales of an integer monomial (perm, nums, dens)."""
    perm, nums, dens = q
    return perm, tuple(map(Fraction, nums, dens))


@settings(max_examples=200)
@given(admissible_tuples())
def test_integer_tuple_and_step_match_fraction_code(p):
    """The integer rows, admissibility, middle-min test, step and its q
    scales against the Fraction code, and the step's rows primitive."""
    rows = canonical._rows(p)
    assert all(d > 0 and gcd(a, d, b) == 1 for a, d, b in rows)
    assert canonical._params(rows) == p
    assert canonical._admissible(rows) is not None and fraction_is_admissible(p)
    assert canonical._middle_min(rows) == fraction_middle_min(p) == middle_min_condition(p)
    for _ in range(7):
        nxt, table, q1, q2 = canonical._step(rows)
        expected, e1, e2 = fraction_step(p)
        assert canonical._params(nxt) == expected and nxt == canonical._rows(expected)
        assert canonical._matrix(table) == fraction_canonical_matrix(expected)
        assert scales_of(q1) == (e1.perm, e1.scales) and scales_of(q2) == (e2.perm, e2.scales)
        assert canonical._middle_min(nxt) == fraction_middle_min(expected)
        rows, p = nxt, expected


@settings(max_examples=200)
@given(admissible_tuples())
def test_integer_direct_factor_matches_fraction_code(p):
    """The direct factor's (num, den) tables at every tuple of the orbit
    where the middle-min condition holds, and the whole certificate."""
    rows = canonical._rows(p)
    for _ in range(7):
        table = canonical._dets(rows)
        if canonical._middle_min(rows):
            left, right = canonical._direct_factor(rows, table)
            assert all(d > 0 for row in left + right for _, d in row)
            expected = fraction_direct_factor(p, fraction_canonical_matrix(p))
            assert (canonical._matrix(left), canonical._matrix(right)) == expected
        rows, _, _, _ = canonical._step(rows)
        p, _, _ = fraction_step(p)
    cert = factor_canonical(p)
    assert cert == compacted(fraction_certificate(p))


def test_admissibility_matches_fraction_code_across_the_boundary():
    """The boundary tuples, and the two sides of a bisection towards each
    of them, where the outside point has typically just one canonical
    entry below zero: both codes agree, and step rejects the outside."""
    rng = random.Random(5)
    for _ in range(8):
        p = sample_admissible(rng.randrange(2**32), 4096)
        for boundary in range(len(BOUNDARIES)):
            for q in (*towards(p, boundary, 30), towards(p, boundary, 0)[1]):
                assert is_admissible(q) == fraction_is_admissible(q)
                if not fraction_is_admissible(q):
                    with pytest.raises(NotAdmissible):
                        step(q)


def test_middle_min_ties_match_fraction_code():
    """a1 + b1 or a3 + b3 equal to a2 + b2: ties qualify in both codes."""
    rng = random.Random(7)
    ties = [tie(sample_admissible(rng.randrange(2**32), 4096), i) for i in (1, 3) * 20]
    ties = [q for q in ties if q is not None]
    assert len(ties) > 10
    for q in ties:
        assert canonical._middle_min(canonical._rows(q)) == fraction_middle_min(q) is True


def test_forced_mirror_matches_fraction_code(monkeypatch):
    """With the first seven middle-min tests failed in both codes, the
    mirror search gives the Fraction code's certificate."""
    rng = random.Random(6)
    for _ in range(20):
        p = sample_admissible(rng.randrange(2**32), 4096)
        with monkeypatch.context() as patch:
            patch.setattr(canonical, "_middle_min", starved(canonical._middle_min))
            cert = factor_canonical(p)
        with monkeypatch.context() as patch:
            patch.setattr(sys.modules[__name__], "fraction_middle_min",
                          starved(fraction_middle_min))
            expected = fraction_certificate(p)
        assert cert.used_reversal and cert == compacted(expected)
