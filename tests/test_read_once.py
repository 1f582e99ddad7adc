"""Each entry on the ``nn_factor`` / ``verify_factorization`` path is read once.

One pass over the input finds its first negative entry and its zero lines;
the chunks of a rank-3 core read slices of the columns the core's rank
cleared; the closing check's product kernel reports both factors' first
negative entries while it reads their nonzeros.  These tests hold each of
those to the separate scans they replace: the old verifier, kept here as
the oracle, built its report from ``first_negative_entry`` on each factor
and ``product_difference`` when the shapes agree.
"""

import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from exactnmf.cli import run
from exactnmf.driver import (
    Factorization,
    _factor_chunk,
    inner_dimension_bound,
    nn_factor,
    verify_factorization,
)
from exactnmf.errors import NegativeEntryError
from exactnmf.linalg import Matrix, block_diag, format_value, product_difference
from exactnmf.rng import SplitMix64
from exactnmf.serialize import certificate_to_jsonable, matrix_to_jsonable

from test_driver_properties import product, splitmix_corpus
from test_one_check import count_calls


def oracle_failures(a: Matrix, fact: Factorization):
    """The failure list of ``verify_factorization`` as it was built from
    separate sign scans: shapes, declared inner dimension, each factor's
    ``first_negative_entry``, ``product_difference`` if the shapes agree and
    the left factor is no wider than the bound, then the bound."""
    left, right = fact.left, fact.right
    failures = []
    if left.rows != a.rows:
        failures.append(f"left factor has {left.rows} rows, input has {a.rows}")
    if right.cols != a.cols:
        failures.append(f"right factor has {right.cols} columns, input has {a.cols}")
    if left.cols != right.rows:
        failures.append(f"inner dimensions disagree: left is {left.shape}, right is {right.shape}")
    shapes_ok = not failures
    if fact.inner_dim != left.cols:
        failures.append(
            f"declared inner dimension {fact.inner_dim} differs from left factor shape {left.shape}")
    for name, factor in (("left", left), ("right", right)):
        hit = factor.first_negative_entry()
        if hit is not None:
            (i, j), x = hit
            failures.append(f"{name} factor has negative entry {format_value(x)} at ({i}, {j})")
    bound = inner_dimension_bound(a.rows, a.cols)
    hit = product_difference(left, right, a) if shapes_ok and left.cols <= bound else None
    if hit is not None:
        i, j, value = hit
        failures.append(f"product disagrees with input at ({i}, {j}): "
                        f"{format_value(value)} != {format_value(a.data[i][j])}")
    if fact.bound != bound:
        failures.append(f"declared bound {fact.bound} differs from ceil(6*min(m,n)/7) = {bound}")
    if fact.inner_dim > bound:
        failures.append(f"inner dimension {fact.inner_dim} exceeds the bound {bound}")
    return failures


def edited(m: Matrix, changes) -> Matrix:
    """``m`` with entry (i, j) set to f(old) for each (i, j, f) in ``changes``."""
    rows = [list(row) for row in m.data]
    for i, j, f in changes:
        rows[i][j] = f(rows[i][j])
    return Matrix._raw(tuple(map(tuple, rows)), m.rows, m.cols)


def nonzeros(m: Matrix):
    return [(i, j) for i, row in enumerate(m.data) for j, x in enumerate(row) if x]


def negated_pair(fact):
    """Left column 0 and right row 0 negated: the product is unchanged and
    both factors have negative entries."""
    left = edited(fact.left, [(i, 0, lambda x: -x) for i in range(fact.left.rows)])
    right = edited(fact.right, [(0, j, lambda x: -x) for j in range(fact.right.cols)])
    return replace(fact, left=left, right=right)


def negated_entry(fact):
    """The last nonzero left entry negated: a negative entry and, where its
    right row is nonzero, a product mismatch."""
    i, j = nonzeros(fact.left)[-1]
    return replace(fact, left=edited(fact.left, [(i, j, lambda x: -x)]))


def mismatch_then_negative(fact):
    """The first nonzero left entry raised by one and the last one negated,
    in a later row: the product differs before the negative entry."""
    entries = nonzeros(fact.left)
    (i0, j0), (i1, j1) = entries[0], entries[-1]
    if i1 == i0:
        return None
    return replace(fact, left=edited(fact.left, [(i0, j0, lambda x: x + 1), (i1, j1, lambda x: -x)]))


def inner_mismatch(fact):
    """The right factor's last row dropped, the entry of the new last row
    and last column made negative and left entry (-1, 0) lowered by 2: the
    inner dimensions disagree, and both factors' signs are still read."""
    right = fact.right
    rows = [list(row) for row in right.data[:-1]]
    if rows and rows[-1]:
        rows[-1][-1] = -rows[-1][-1] - 1
    left = edited(fact.left, [(fact.left.rows - 1, 0, lambda x: x - 2)])
    return replace(fact, left=left,
                   right=Matrix._raw(tuple(map(tuple, rows)), len(rows), right.cols))


TAMPERINGS = [negated_pair, negated_entry, mismatch_then_negative, inner_mismatch]


# What each tampering must show in at least 50 of the corpus's cases.
SHOWS = {
    negated_pair: ("negative",),
    negated_entry: ("negative", "product"),
    mismatch_then_negative: ("negative", "product", "negative after mismatch"),
    inner_mismatch: ("negative", "shapes"),
}


@pytest.mark.parametrize("tamper", TAMPERINGS, ids=lambda f: f.__name__)
def test_fused_signs_match_separate_scans(tamper):
    """Over the driver corpus, every tampered certificate's failure list is
    the one the separate scans give."""
    seen = Counter()
    for a in splitmix_corpus():
        fact = nn_factor(a)
        bad = tamper(fact) if fact.inner_dim else None
        if bad is None:
            continue
        failures = verify_factorization(a, bad).failures
        assert failures == oracle_failures(a, bad)
        left_negative = bad.left.first_negative_entry()
        hit = product_difference(bad.left, bad.right, a)
        seen.update({
            "negative": any("negative entry" in f for f in failures),
            "product": any(f.startswith("product disagrees") for f in failures),
            "negative after mismatch": bool(left_negative and hit and left_negative[0][0] > hit[0]),
            "shapes": any("disagree:" in f for f in failures),
        })
    assert all(seen[kind] >= 50 for kind in SHOWS[tamper])
    assert {kind for kind in seen if seen[kind]} == set(SHOWS[tamper])


def test_negative_entry_after_a_zero_row():
    """The one input pass names the first negative entry in row-major order,
    also when zero rows and a zero column come before it."""
    a = [[0, 0, 0, 0], [0, 3, 0, Fraction(-1, 2)], [0, -5, 0, 1]]
    with pytest.raises(NegativeEntryError) as raised:
        nn_factor(a)
    assert str(raised.value) == "input matrix has negative entry -1/2 at (1, 3)"
    with pytest.raises(NegativeEntryError, match=r"^input matrix has negative entry -1 at \(2, 0\)$"):
        nn_factor([[0, 0], [0, 0], [-1, 0]])


def rank_three_20_by_30():
    rng = SplitMix64(20)
    w = [[Fraction(1 + rng.below(9), 1 + rng.below(5)) for _ in range(3)] for _ in range(20)]
    h = [[Fraction(1 + rng.below(9), 1 + rng.below(5)) for _ in range(30)] for _ in range(3)]
    return product(w, h)


def test_chunks_read_the_core_columns(monkeypatch):
    """A 20 x 30 rank-3 input factors in chunks of 7, 7 and 6 rows.  The
    rank clears its 30 columns, and each chunk reads its slice of them:
    30 calls to ``clear_denominators``, not the 120 made when each chunk
    cleared its own.  Each chunk's block is the one a fresh copy of its
    rows gives."""
    a = rank_three_20_by_30()
    calls = count_calls(monkeypatch, "clear_denominators")
    fact = nn_factor(a)
    assert len(calls) == 30
    assert [r["rows"] for r in fact.trace] == [[0, 7], [7, 14], [14, 20]]
    monkeypatch.undo()
    column = 0
    for record in fact.trace:
        start, stop = record["rows"]
        left, right, info = _factor_chunk(Matrix(a.data[start:stop]), start)
        assert info == record
        assert left == Matrix._raw(
            tuple(row[column:column + left.cols] for row in fact.left.data[start:stop]),
            left.rows, left.cols)
        assert right.data == fact.right.data[column:column + left.cols]
        column += left.cols


def test_entries_kept_as_given():
    """``Matrix`` keeps a Fraction entry as the same object and coerces the
    rest; ``block_diag`` of one block is that block."""
    x = Fraction(3, 4)
    m = Matrix([[x, 2, "1/3"]])
    assert m.data[0][0] is x and m.data[0][1:] == (Fraction(2), Fraction(1, 3))
    assert block_diag([m]) is m


def test_bound_refusal_reads_no_product(monkeypatch, tmp_path, capsys):
    """A left factor wider than ceil(6 min(m, n) / 7) is refused whatever its
    product, so the product kernel is never entered: not for an all-ones
    100 x 5000 by 5000 x 100 certificate of the all-5000 matrix, in the
    library or through the CLI, nor for a 7 x 7 certificate whose product is
    wrong, where the sign scans still name the negative entry."""
    calls = count_calls(monkeypatch, "_product_rows")
    one, wide = Fraction(1), 5000
    a = Matrix([[wide] * 100] * 100)
    left = Matrix._raw(((one,) * wide,) * 100, 100, wide)
    right = Matrix._raw(((one,) * 100,) * wide, wide, 100)
    fact = Factorization(left, right, wide, inner_dimension_bound(100, 100), ())
    assert verify_factorization(a, fact).failures == ["inner dimension 5000 exceeds the bound 86"]

    matrix_path, cert_path = tmp_path / "a.json", tmp_path / "c.json"
    matrix_path.write_text(json.dumps(matrix_to_jsonable(a)))
    cert_path.write_text(json.dumps(certificate_to_jsonable(fact)))
    assert run(["verify", "--input", str(matrix_path), "--cert", str(cert_path)]) == 1
    assert "inner dimension 5000 exceeds the bound 86" in capsys.readouterr().out

    seven = Matrix.identity(7)
    negative = Factorization(edited(seven, [(3, 3, lambda x: -x)]), seven, 7, 6, ())
    failures = verify_factorization(seven, negative).failures
    assert failures == oracle_failures(seven, negative) == [
        "left factor has negative entry -1 at (3, 3)",
        "inner dimension 7 exceeds the bound 6",
    ]
    assert calls == []
