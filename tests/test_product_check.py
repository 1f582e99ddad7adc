"""The support-only product check ``is_product`` against the dense product.

``is_product`` sums each target row over the nonzeros of its left row
alone, and runs on the transposes when the right factor has fewer
nonzeros per product entry.  Whatever the orientation, its verdict must be
``(left @ right) == target``, and the verifiers' failure messages, which
build the dense product to name the first differing entry, keep their text.
"""

from dataclasses import replace
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from exactnmf import linalg
from exactnmf.driver import Factorization, nn_factor, verify_factorization
from exactnmf.linalg import Matrix, is_product
from exactnmf.polygon import build_extension, verify_extension

from test_linalg_kernel import build, scalars

sides = st.integers(1, 7)
# (shape, tenths of nonzero entries in left, in right): dense, sparse, one
# side much sparser than the other (which forces each orientation), and
# the 1 x k, k x 1 and inner-dimension-0 shapes.
layouts = st.sampled_from([
    ("any", 10, 10), ("any", 3, 3), ("any", 1, 9), ("any", 9, 1), ("any", 0, 5),
    ("any", 5, 0), ("1xk", 5, 5), ("kx1", 5, 5), ("inner0", 5, 5),
])


def nnz(m: Matrix) -> int:
    return sum(1 for row in m.data for x in row if x)


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


def checked(left, right, target):
    """is_product's verdict, and whether it ran on the transposes (None
    when it decided on shapes alone)."""
    with mock.patch.object(linalg, "_rows_combine", wraps=linalg._rows_combine) as spy:
        verdict = is_product(left, right, target)
    transposed = spy.call_args.args[0] is not left.data if spy.called else None
    return verdict, transposed


@settings(max_examples=500)
@given(st.data())
def test_support_only_check_matches_dense_product(data):
    shape, left_tenths, right_tenths = data.draw(layouts)
    m = 1 if shape == "1xk" else data.draw(sides)
    n = 1 if shape == "kx1" else data.draw(sides)
    k = 0 if shape == "inner0" else data.draw(sides)
    left = data.draw(sparse(m, k, left_tenths))
    right = data.draw(sparse(k, n, right_tenths))
    product = left @ right
    offset = data.draw(st.sampled_from([None, Fraction(1), Fraction(-1), Fraction(1, 3)]))
    target = product
    if offset is not None:
        i, j = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, n - 1))
        rows = [list(row) for row in product.data]
        rows[i][j] += offset
        target = Matrix(rows)
    verdict, transposed = checked(left, right, target)
    assert verdict == (product == target) == (offset is None)
    if k:
        assert transposed == (nnz(right) * m < nnz(left) * n)


def test_each_orientation_finds_one_wrong_entry():
    dense = Matrix([[1, 2, -3], [Fraction(1, 2), 5, 7]])
    sparse_ = Matrix([[0, 0], [0, Fraction(2, 3)], [0, 0]])
    for left, right in ((dense, sparse_), (sparse_.transpose(), dense.transpose())):
        product = left @ right
        rows = [list(row) for row in product.data]
        rows[-1][-1] += Fraction(1, 3)
        assert checked(left, right, product) == (True, left is dense)
        assert checked(left, right, Matrix(rows)) == (False, left is dense)


def test_shapes_decide_without_the_kernel():
    a = Matrix([[1, 2]])
    assert checked(a, a, a) == (False, None)
    assert checked(Matrix.zeros(2, 0), Matrix.zeros(0, 3), Matrix.zeros(2, 3)) == (True, None)
    assert checked(Matrix.zeros(2, 0), Matrix.zeros(0, 3), Matrix([[0, 0, 0], [0, 1, 0]])) \
        == (False, None)


# -- failure messages, pinned to their text before the support-only check ----


def zero_rows(m: Matrix, rows) -> Matrix:
    return Matrix([[0] * m.cols if i in rows else list(row) for i, row in enumerate(m.data)])


def bumped(m: Matrix, i: int, j: int) -> Matrix:
    rows = [list(row) for row in m.data]
    rows[i][j] += 1
    return Matrix(rows)


def test_factorization_message_for_a_row_without_support(h7_slack):
    fact = nn_factor(h7_slack)
    # The transposed certificate runs row-wise; its left row 2 is emptied.
    flipped = Factorization(fact.right.transpose(), fact.left.transpose(),
                            fact.inner_dim, fact.bound, fact.trace)
    flipped = replace(flipped, left=zero_rows(flipped.left, {2}))
    assert checked(flipped.left, flipped.right, h7_slack.transpose()) == (False, False)
    assert verify_factorization(h7_slack.transpose(), flipped).failures == [
        "product disagrees with input at (2, 0): 0 != 2"
    ]


def test_factorization_message_for_a_transposed_mismatch(h7_slack):
    fact = nn_factor(h7_slack)
    target = bumped(h7_slack, 2, 3)
    assert checked(fact.left, fact.right, target) == (False, True)
    assert verify_factorization(target, fact).failures == [
        "product disagrees with input at (2, 3): 0 != 1"
    ]


def test_extension_message_for_rows_without_support(h7_polygon, h7_slack):
    ef = build_extension(h7_polygon)
    ef = replace(ef, T=zero_rows(ef.T, {0, 1, 2}))
    assert checked(ef.T, ef.lifts, h7_slack) == (False, False)
    assert verify_extension(h7_polygon, ef).failures == [
        "slack reconstruction fails at facet 0, vertex 2: 0 != 2",
        "equality 1 fails at vertex 0: 3 != 0",
        "equality 2 fails at vertex 1: 2 != 0",
        "equality 0 fails at vertex 2: 2 != 0",
        "equality 0 fails at vertex 3: 5 != 0",
        "equality 0 fails at vertex 4: 7 != 0",
        "equality 0 fails at vertex 5: 6 != 0",
        "equality 0 fails at vertex 6: 3 != 0",
    ]


def test_extension_message_for_a_transposed_mismatch(h7_polygon, h7_slack):
    ef = build_extension(h7_polygon)
    ef = replace(ef, lifts=bumped(ef.lifts, 0, 3))
    assert checked(ef.T, ef.lifts, h7_slack) == (False, True)
    assert verify_extension(h7_polygon, ef).failures == [
        "slack reconstruction fails at facet 0, vertex 3: 14303/2860 != 5",
        "equality 0 fails at vertex 3: 5 != 14303/2860",
    ]
