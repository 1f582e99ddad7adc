"""The integer kernel of ``linalg`` against the all-Fraction oracle.

The oracle below is the rational Gaussian elimination and the Fraction
dot-product ``@`` that ``linalg`` used before it cleared denominators and
switched to Bareiss elimination.  The kernel must agree with it exactly:
same products, ranks, pivot columns, solutions (free variables 0) and
``Inconsistency.row``.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exactnmf import linalg
from exactnmf.linalg import (
    Inconsistency,
    Matrix,
    insert_zero_lines,
    is_product,
    rank,
    solve,
)

# -- oracle: the Fraction implementation, kept verbatim ---------------------


def oracle_matmul(self, other):
    if self.rows == 0 or other.cols == 0 or self.cols == 0:
        return Matrix.zeros(self.rows, other.cols)
    zero = Fraction(0)
    bt = tuple(zip(*other.data))
    out = tuple(
        tuple(sum((a * b for a, b in zip(arow, bcol)), zero) for bcol in bt)
        for arow in self.data
    )
    return Matrix._raw(out, self.rows, other.cols)


def oracle_eliminate(data):
    rows = len(data)
    cols = len(data[0]) if rows else 0
    origins = list(range(rows))
    pivot_cols = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if data[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            data[r], data[pivot] = data[pivot], data[r]
            origins[r], origins[pivot] = origins[pivot], origins[r]
        pivot_cols.append(c)
        lead = data[r][c]
        for i in range(r + 1, rows):
            if data[i][c] != 0:
                f = data[i][c] / lead
                row_i, row_r = data[i], data[r]
                for j in range(c, cols):
                    row_i[j] -= f * row_r[j]
        r += 1
        if r == rows:
            break
    return pivot_cols, origins


def oracle_rank(m):
    if m.rows == 0 or m.cols == 0:
        return 0
    work = [list(row) for row in m.data]
    pivot_cols, _ = oracle_eliminate(work)
    return len(pivot_cols)


def oracle_solve(a, b):
    rhs = [Fraction(x) for x in b]
    work = [list(row) + [rhs[i]] for i, row in enumerate(a.data)]
    if a.rows == 0:
        return [Fraction(0)] * a.cols
    pivot_cols, origins = oracle_eliminate(work)
    n = a.cols
    if n in pivot_cols:
        bad = len(pivot_cols) - 1
        return Inconsistency(row=origins[bad])
    solution = [Fraction(0)] * n
    for r in range(len(pivot_cols) - 1, -1, -1):
        c = pivot_cols[r]
        s = work[r][n]
        row = work[r]
        for j in range(c + 1, n):
            if row[j] != 0:
                s -= row[j] * solution[j]
        solution[c] = s / row[c]
    return solution


# -- strategies -------------------------------------------------------------

# Zero is drawn often so that zero lines and sparse pivots are common.
scalars = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**12)),
)
sides = st.integers(0, 8)


def build(entries, rows, cols):
    return Matrix(entries) if rows and cols else Matrix.zeros(rows, cols)


@st.composite
def matrices(draw, rows=sides, cols=sides):
    """Random rational matrix, with some rows and columns zeroed."""
    m, n = draw(rows), draw(cols)
    entries = [[draw(scalars) for _ in range(n)] for _ in range(m)]
    zero_rows = draw(st.sets(st.integers(0, max(m - 1, 0)), max_size=m))
    zero_cols = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n))
    for i in range(m):
        for j in range(n):
            if i in zero_rows or j in zero_cols:
                entries[i][j] = Fraction(0)
    return build(entries, m, n)


@st.composite
def products(draw, rows=sides, cols=sides, inner=st.integers(0, 3)):
    """W @ H: rank at most the inner dimension, often deficient."""
    k = draw(inner)
    w = draw(matrices(rows, st.just(k)))
    h = draw(matrices(st.just(k), cols))
    return oracle_matmul(w, h)


nonzero = st.builds(
    Fraction,
    st.integers(1, 10**30).flatmap(lambda n: st.sampled_from([n, -n])),
    st.integers(1, 10**12),
)


def perturbed(draw, m):
    """``m`` with one entry changed by a nonzero amount."""
    i, j = draw(st.integers(0, m.rows - 1)), draw(st.integers(0, m.cols - 1))
    rows = [list(row) for row in m.data]
    rows[i][j] += draw(nonzero)
    return Matrix(rows)


def vector(draw, size):
    return [draw(scalars) for _ in range(size)]


def check_solve(a, b):
    expected = oracle_solve(a, b)
    got = solve(a, b)
    assert got == expected
    return got


# -- properties -------------------------------------------------------------


@settings(max_examples=300)
@given(st.data())
def test_matmul_matches_oracle(data):
    a = data.draw(matrices())
    b = data.draw(matrices(rows=st.just(a.cols)))
    product = a @ b
    assert product == oracle_matmul(a, b)
    assert all(x.denominator > 0 for row in product.data for x in row)


@settings(max_examples=300)
@given(st.one_of(matrices(), products()))
def test_rank_and_basis_match_oracle(m):
    assert rank(m) == oracle_rank(m)


@settings(max_examples=300)
@given(st.data())
def test_solve_matches_oracle(data):
    a = data.draw(st.one_of(matrices(), products()))
    check_solve(a, vector(data.draw, a.rows))


@settings(max_examples=200)
@given(st.data())
def test_inconsistent_row_matches_oracle(data):
    a = data.draw(products(rows=st.integers(2, 8), inner=st.integers(0, 2)))
    x = vector(data.draw, a.cols)
    noise = vector(data.draw, a.rows)
    b = [sum((p * q for p, q in zip(row, x)), Fraction(0)) + e for row, e in zip(a.data, noise)]
    assume(isinstance(oracle_solve(a, b), Inconsistency))
    assert 0 <= check_solve(a, b).row < a.rows


@settings(max_examples=200)
@given(st.data())
def test_free_variables_match_oracle(data):
    a = data.draw(products(cols=st.integers(2, 8), inner=st.integers(1, 3)))
    assume(rank(a) < a.cols)
    x = vector(data.draw, a.cols)
    b = [sum((p * q for p, q in zip(row, x)), Fraction(0)) for row in a.data]
    got = check_solve(a, b)
    assert oracle_matmul(a, Matrix.from_columns([got])).column(0) == tuple(b)


@settings(max_examples=400)
@given(st.data())
def test_is_product_matches_oracle(data):
    a = data.draw(st.one_of(matrices(), products()))
    b = data.draw(matrices(rows=st.one_of(st.just(a.cols), sides)))
    if a.cols != b.rows:
        # ``@`` refuses these shapes; no target is their product.
        assert not is_product(a, b, data.draw(matrices()))
        return
    product = oracle_matmul(a, b)
    kind = data.draw(st.sampled_from(["exact", "perturbed", "same-shape", "any-shape"]))
    if kind == "exact":
        target = product
    elif kind == "perturbed" and product.rows and product.cols:
        target = perturbed(data.draw, product)
        assert not is_product(a, b, target)
    elif kind == "same-shape":
        target = data.draw(matrices(rows=st.just(a.rows), cols=st.just(b.cols)))
    else:
        target = data.draw(matrices())
    assert is_product(a, b, target) == (product == target)


# -- the rank memo ----------------------------------------------------------


@settings(max_examples=200)
@given(st.one_of(matrices(), products()))
def test_rank_memo_matches_fresh_elimination(m):
    """A memoized rank changes neither ``==`` nor ``hash``, and matrices
    built from a ranked one (``_raw`` on its data, its transpose, it with
    zero lines inserted) get their own rank, equal to a fresh elimination."""
    fresh = Matrix._raw(m.data, m.rows, m.cols)
    assert rank(m) == oracle_rank(m)
    assert m == fresh and hash(m) == hash(fresh)
    derived = (
        Matrix._raw(m.data, m.rows, m.cols),
        m.transpose(),
        insert_zero_lines(m, [0], [m.cols], m.rows + 1, m.cols + 1),
    )
    for d in derived:
        assert rank(d) == oracle_rank(d)


def test_rank_eliminates_once_per_matrix(monkeypatch):
    calls = []
    eliminate = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda data: calls.append(1) or eliminate(data))
    m = Matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank(m) == 2
    assert rank(m) == 2
    assert len(calls) == 1
    assert rank(Matrix(m.data)) == 2  # an equal but new matrix is eliminated anew
    assert len(calls) == 2
