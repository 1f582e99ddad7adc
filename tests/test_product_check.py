"""The exact product check against the all-Fraction oracle.

``@``, ``is_product`` and the verifiers' failure reports share one sparse
row sum: ``product_difference`` sums each target row over the nonzeros of
its left row and returns the first row-major entry where the product
differs from the target, with the product's value there.  It must agree
with the oracle product on every shape, including the ones that used to
pick a transposed orientation.  A formulation's failures are its
certificate's: T is the left factor, lifts the right and the slack matrix
the input.
"""

from dataclasses import replace
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from exactnmf import linalg
from exactnmf.driver import Factorization, nn_factor, verify_factorization
from exactnmf.linalg import Matrix, is_product, product_difference
from exactnmf.polygon import build_extension, verify_extension

from test_linalg_kernel import build, oracle_matmul, scalars

sides = st.integers(1, 7)
# (shape, tenths of nonzero entries in left, in right): dense, sparse, one
# side much sparser than the other, and the 1 x k, k x 1 and
# inner-dimension-0 shapes.
layouts = st.sampled_from([
    ("any", 10, 10), ("any", 3, 3), ("any", 1, 9), ("any", 9, 1), ("any", 0, 5),
    ("any", 5, 0), ("1xk", 5, 5), ("kx1", 5, 5), ("inner0", 5, 5),
])


@st.composite
def sparse(draw, rows, cols, tenths):
    """rows x cols, each entry nonzero with odds ``tenths`` in 10, and some
    rows and columns zeroed whatever the odds."""
    entries = [
        [draw(scalars) if draw(st.integers(0, 9)) < tenths else Fraction(0) for _ in range(cols)]
        for _ in range(rows)
    ]
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=2))
    return build(
        [[Fraction(0) if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
         for i, row in enumerate(entries)],
        rows, cols,
    )


@st.composite
def cases(draw):
    """(left, right, oracle product, target): the target is the product, or
    the product off by +1, -1 or +1/3 in one entry."""
    shape, left_tenths, right_tenths = draw(layouts)
    m = 1 if shape == "1xk" else draw(sides)
    n = 1 if shape == "kx1" else draw(sides)
    k = 0 if shape == "inner0" else draw(sides)
    left = draw(sparse(m, k, left_tenths))
    right = draw(sparse(k, n, right_tenths))
    product = oracle_matmul(left, right)
    offset = draw(st.sampled_from([None, Fraction(1), Fraction(-1), Fraction(1, 3)]))
    if offset is None:
        return left, right, product, product
    i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
    rows = [list(row) for row in product.data]
    rows[i][j] += offset
    return left, right, product, Matrix(rows)


def oracle_difference(product: Matrix, target: Matrix):
    """The first row-major (i, j, product entry) where the two differ."""
    return next(((i, j, x) for i, (row, t_row) in enumerate(zip(product.data, target.data))
                 for j, (x, t) in enumerate(zip(row, t_row)) if x != t), None)


@settings(max_examples=500)
@given(cases())
def test_support_only_check_matches_dense_product(case):
    left, right, product, target = case
    assert left @ right == product
    assert is_product(left, right, target) == (product == target)


@settings(max_examples=500)
@given(cases())
def test_product_difference_is_the_first_oracle_mismatch(case):
    left, right, product, target = case
    hit = product_difference(left, right, target)
    assert hit == oracle_difference(product, target)
    assert (hit is None) == (target is product)


def test_each_orientation_finds_one_wrong_entry():
    """A dense left by a sparse right factor, and its transpose: shapes that
    once ran the check on the transposes and once did not.  Each finds the
    one wrong entry, and reports the product's value there."""
    dense = Matrix([[1, 2, -3], [Fraction(1, 2), 5, 7]])
    sparse_ = Matrix([[0, 0], [0, Fraction(2, 3)], [0, 0]])
    for left, right in ((dense, sparse_), (sparse_.transpose(), dense.transpose())):
        product = oracle_matmul(left, right)
        rows = [list(row) for row in product.data]
        rows[-1][-1] += Fraction(1, 3)
        assert product_difference(left, right, product) is None
        assert product_difference(left, right, Matrix(rows)) \
            == (product.rows - 1, product.cols - 1, product.data[-1][-1])


def test_shapes_decide_without_the_kernel():
    a = Matrix([[1, 2]])
    with mock.patch.object(linalg, "_product_rows", wraps=linalg._product_rows) as spy:
        assert not is_product(a, a, a)
        assert not is_product(a, a.transpose(), a)
    assert not spy.called


def test_inner_dimension_zero_compares_against_zeros():
    """No special case: every left row of an inner-dimension-0 product is
    a zero row, so the product is zeros of the target's shape."""
    left, right = Matrix.zeros(2, 0), Matrix.zeros(0, 3)
    assert left @ right == Matrix.zeros(2, 3)
    assert is_product(left, right, Matrix.zeros(2, 3))
    assert product_difference(left, right, Matrix([[0, 0, 0], [0, 1, 0]])) == (1, 1, 0)
    assert Matrix.zeros(0, 2) @ Matrix([[1, 2, 3], [4, 5, 6]]) == Matrix.zeros(0, 3)
    assert Matrix([[1, 2]]) @ Matrix.zeros(2, 0) == Matrix.zeros(1, 0)


# -- failure messages, pinned to their text ----------------------------------


def zero_rows(m: Matrix, rows) -> Matrix:
    return Matrix([[0] * m.cols if i in rows else list(row) for i, row in enumerate(m.data)])


def bumped(m: Matrix, i: int, j: int) -> Matrix:
    rows = [list(row) for row in m.data]
    rows[i][j] += 1
    return Matrix(rows)


def test_factorization_message_for_a_row_without_support(h7_slack):
    fact = nn_factor(h7_slack)
    # The transposed certificate with its left row 2 emptied: a zero left
    # row against a nonzero target row.
    flipped = Factorization(fact.right.transpose(), fact.left.transpose(),
                            fact.inner_dim, fact.bound, fact.trace)
    flipped = replace(flipped, left=zero_rows(flipped.left, {2}))
    assert product_difference(flipped.left, flipped.right, h7_slack.transpose()) == (2, 0, 0)
    assert verify_factorization(h7_slack.transpose(), flipped).failures == [
        "product disagrees with input at (2, 0): 0 != 2"
    ]


def test_factorization_message_for_a_transposed_mismatch(h7_slack):
    fact = nn_factor(h7_slack)
    target = bumped(h7_slack, 2, 3)
    assert product_difference(fact.left, fact.right, target) == (2, 3, 0)
    assert verify_factorization(target, fact).failures == [
        "product disagrees with input at (2, 3): 0 != 1"
    ]


def test_extension_message_for_rows_without_support(h7_polygon, h7_slack):
    ef = build_extension(h7_polygon)
    ef = replace(ef, T=zero_rows(ef.T, {0, 1, 2}))
    assert product_difference(ef.T, ef.lifts, h7_slack) == (0, 2, 0)
    assert verify_extension(h7_polygon, ef).failures == [
        "product disagrees with input at (0, 2): 0 != 2"
    ]


def test_extension_message_for_a_transposed_mismatch(h7_polygon, h7_slack):
    ef = build_extension(h7_polygon)
    ef = replace(ef, lifts=bumped(ef.lifts, 0, 3))
    assert product_difference(ef.T, ef.lifts, h7_slack) == (0, 3, Fraction(12))
    assert verify_extension(h7_polygon, ef).failures == [
        "product disagrees with input at (0, 3): 12 != 5"
    ]
