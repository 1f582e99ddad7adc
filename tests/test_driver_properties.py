"""Random rank <= 3 products through the whole driver.

The section-layer oracle tests check each kernel on its own; these check
what the driver wraps around them: zero-line stripping, the transpose,
7-row chunking and the remainder chunk.  Every input goes through both
``nn_factor`` and ``ExactNMF.fit_transform``, which must agree.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from exactnmf import ExactNMF, driver
from exactnmf.cli import run
from exactnmf.driver import inner_dimension_bound, nn_factor, verify_factorization
from exactnmf.generate import random_convex_polygon
from exactnmf.linalg import Matrix
from exactnmf.polygon import slack_matrix
from exactnmf.rng import SplitMix64
from exactnmf.serialize import dumps, matrix_to_jsonable, save_text

CHUNK_METHODS = {
    "section",
    "section+cyclic",
    "segment",
    "single-column",
    "identity",
    "strip-zeros",
    "transpose",
}


def check_through_driver(a: Matrix):
    """Factor ``a`` both ways, check the certificate, return its methods."""
    fact = nn_factor(a)
    assert verify_factorization(a, fact).ok
    assert fact.inner_dim <= inner_dimension_bound(a.rows, a.cols)
    zero_rows = [i for i, row in enumerate(a.data) if not any(row)]
    zero_cols = [j for j, col in enumerate(zip(*a.data)) if not any(col)]
    if zero_rows or zero_cols:
        assert fact.trace[0] == {
            "method": "strip-zeros", "zero_rows": zero_rows, "zero_cols": zero_cols
        }
    est = ExactNMF()
    assert est.fit_transform(a) == fact.left
    assert est.components_ == fact.right
    assert est.trace_ == fact.trace
    return {record["method"] for record in fact.trace}


def product(w, h):
    return Matrix(
        [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*h)] for row in w]
    )


def polygon_rows(rng_seed, k, extra, pick):
    """The k facet rows of a random k-gon's slack matrix, then ``extra``
    redundant rows: zero, a positive multiple of a facet row, or a
    positive combination of two facet rows (of adjacent facets, such a
    line passes through a vertex, a tangency)."""
    facets = [list(row) for row in slack_matrix(random_convex_polygon(SplitMix64(rng_seed), k)).matrix.data]
    rows = [list(row) for row in facets]
    for _ in range(extra):
        kind, i, j, lam, mu = pick(k)
        if kind == "zero":
            row = [Fraction(0)] * k
        elif kind == "multiple":
            row = [lam * x for x in facets[i]]
        else:
            j = (i + 1) % k if kind == "adjacent" else j
            row = [lam * x + mu * y for x, y in zip(facets[i], facets[j])]
        rows.append(row)
    return rows


def with_columns(rows, extra, pick):
    """``rows`` with ``extra`` more columns: zero, or positive combinations
    of one or two existing columns (in the column space)."""
    columns = [list(col) for col in zip(*rows)]
    for _ in range(extra):
        kind, i, j, lam, mu = pick(len(columns))
        if kind == "zero":
            col = [Fraction(0)] * len(rows)
        else:
            col = [lam * x + mu * y for x, y in zip(columns[i], columns[j])]
        columns.append(col)
    return [list(row) for row in zip(*columns)]


entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(0, 9), st.integers(1, 6)),
    st.builds(Fraction, st.integers(0, 10**20), st.integers(1, 10**20)),
)
weights = st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6))


@st.composite
def rank3_products(draw):
    """W @ H with random nonnegative factors of inner dimension 0..3, or
    polygon slack rows (heptagons most often, so chunks reach
    ``section+cyclic``) with redundant rows and columns, either way up."""
    kind = draw(st.sampled_from(["random", "heptagon", "heptagon", "polygon"]))
    if kind == "random":
        inner = draw(st.integers(0, 3))
        m, n = draw(st.integers(1, 16)), draw(st.integers(1, 16))
        w = [[draw(entries) for _ in range(inner)] for _ in range(m)]
        h = [[draw(entries) for _ in range(n)] for _ in range(inner)]
        return product(w, h) if inner else Matrix.zeros(m, n)

    def pick(size):
        i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        kind = draw(st.sampled_from(["zero", "multiple", "adjacent", "any-two"]))
        return kind, i, j, draw(weights), draw(weights)

    k = 7 if kind == "heptagon" else draw(st.integers(3, 6))
    rows = polygon_rows(draw(st.integers(0, 2**32)), k, draw(st.integers(0, 12)), pick)
    if draw(st.booleans()):  # the facet rows need not lead
        order = draw(st.permutations(range(len(rows))))
        rows = [rows[i] for i in order]
    rows = with_columns(rows, draw(st.integers(0, 12)), pick)
    a = Matrix(rows)
    return a.transpose() if draw(st.booleans()) else a


@settings(max_examples=150)
@given(rank3_products())
def test_random_products_certified(a):
    check_through_driver(a)


def splitmix_corpus(seed=2024, count=60):
    """A fixed corpus: random sparse W @ H of inner dimension 1..3 and
    shapes up to 16 x 16, and heptagon and hexagon slack rows with
    redundant rows, zero lines and extra columns, either way up."""
    rng = SplitMix64(seed)

    def scalar():
        return Fraction(rng.below(6), rng.below(4) + 1) if rng.below(3) else Fraction(0)

    def pick(size):
        kind = ("zero", "multiple", "adjacent", "any-two")[rng.below(4)]
        lam, mu = Fraction(rng.below(50) + 1, rng.below(7) + 1), Fraction(rng.below(9) + 1)
        return kind, rng.below(size), rng.below(size), lam, mu

    corpus = []
    for index in range(count):
        if index % 3:
            inner, m, n = index % 3 + (index % 2), rng.below(16) + 1, rng.below(16) + 1
            w = [[scalar() for _ in range(inner)] for _ in range(m)]
            h = [[scalar() for _ in range(n)] for _ in range(inner)]
            corpus.append(product(w, h))
            continue
        k = 7 if index % 2 else 6
        rows = polygon_rows(rng.next_u64(), k, rng.below(8), pick)
        rows = with_columns(rows, rng.below(8), pick)
        a = Matrix(rows)
        corpus.append(a.transpose() if rng.below(2) else a)
    return corpus


def test_splitmix_corpus_reaches_every_chunk_method():
    reached = set()
    for a in splitmix_corpus():
        reached |= check_through_driver(a)
    assert CHUNK_METHODS <= reached, CHUNK_METHODS - reached


def test_corpus_products_through_the_command_line(tmp_path):
    """The first products of the corpus, hexagon and heptagon slack rows
    among them, written to a file, factored and verified by the CLI."""
    for index, a in enumerate(splitmix_corpus()[:9]):
        matrix, cert = str(tmp_path / f"m{index}.json"), str(tmp_path / f"c{index}.json")
        save_text(matrix, dumps(matrix_to_jsonable(a)))
        assert run(["factor", "--input", matrix, "--output", cert]) == 0
        assert run(["verify", "--input", matrix, "--cert", cert]) == 0


def entry_bits(m: Matrix) -> int:
    """Bits of the largest numerator or denominator of ``m``, 0 if empty."""
    return max((max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                for row in m.data for x in row), default=0)


# Per chunk method, the largest ratio of the bits of a chunk's largest
# factor entry to the bits of its largest input entry over the corpus
# below, as measured before section rays were made primitive (the factors
# did not change with them), rounded up: 245 bits from 76 for
# section+cyclic, 152 from 77 for section.
OUTPUT_BITS_PER_INPUT_BIT = {
    "identity": Fraction(1),
    "single-column": Fraction(6, 5),
    "segment": Fraction(8, 5),
    "section": Fraction(2),
    "section+cyclic": Fraction(13, 4),
}


def test_output_bits_are_bounded_by_input_bits(monkeypatch):
    """Coefficient growth, chunk by chunk: over the corpus, no chunk's
    factors carry an entry of more bits than its method's ratio allows."""
    seen = {}
    factor_chunk = driver._factor_chunk

    def measured(chunk, row_start):
        left, right, info = factor_chunk(chunk, row_start)
        out_bits = max(entry_bits(left), entry_bits(right))
        seen.setdefault(info["method"], []).append((entry_bits(chunk), out_bits))
        return left, right, info

    monkeypatch.setattr(driver, "_factor_chunk", measured)
    for a in splitmix_corpus():
        nn_factor(a)
    assert set(seen) == set(OUTPUT_BITS_PER_INPUT_BIT)
    for method, pairs in seen.items():
        ratio = OUTPUT_BITS_PER_INPUT_BIT[method]
        assert all(out_bits <= ratio * in_bits for in_bits, out_bits in pairs), (method, pairs)
