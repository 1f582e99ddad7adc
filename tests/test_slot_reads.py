"""The per-entry passes read a Fraction's slots, not its properties.

The input scan (``driver._strip_zero_lines``), the column clearing behind
``linalg.cleared_columns``, the product check ``product_difference``, the
sign scans ``is_nonnegative`` and ``first_negative_entry`` and the section
core's test for unused vertices read each entry's ``_numerator`` and
``_denominator`` directly: ``numerator``, ``denominator`` and ``__bool__``
are Python-level calls.  The first test pins what those slots hold on every
interpreter the suite runs on; the second counts the property calls the
passes and the whole fit make, which must be none.
"""

import math
from collections import Counter
from fractions import Fraction

import pytest

from exactnmf.driver import _strip_zero_lines, nn_factor
from exactnmf.linalg import Matrix, as_scalar, cleared_columns, product_difference

from conftest import H7_SLACK_ROWS

BIG = 10**400 + 1


@pytest.mark.parametrize("value, p, q", [
    (Fraction(-6, 4), -3, 2),
    (as_scalar("-6/4"), -3, 2),
    (Fraction(0, 5), 0, 1),
    (as_scalar(0), 0, 1),
    (Fraction(7), 7, 1),
    (as_scalar(0.5), 1, 2),
    (Fraction(BIG * 6, 3 * 7**300), BIG * 2, 7**300),
    (as_scalar(f"-{BIG}/{3 * BIG}"), -1, 3),
], ids=["negative", "negative-str", "zero", "zero-int", "integer", "float", "large", "large-str"])
def test_fraction_slots_hold_lowest_terms(value, p, q):
    """The slots hold the numerator and positive denominator in lowest
    terms, as plain ints, and agree with the properties and ``bool``."""
    assert type(value._numerator) is int and type(value._denominator) is int
    assert (value._numerator, value._denominator) == (p, q)
    assert (value.numerator, value.denominator) == (p, q)
    assert value._denominator > 0 and math.gcd(value._numerator, value._denominator) == 1
    assert bool(value) is (value._numerator != 0)


def mixed_fit_shaped() -> Matrix:
    """A sparse rank-3 product W @ H, 10 x 8, with zero rows 2 and 7 and
    zero column 5: stripped, it is taller than wide, so it factors on its
    transpose."""
    f = Fraction
    w = [[1, 0, 0], [0, f(1, 2), 0], [0, 0, 0], [0, 0, 3], [1, 1, 0],
         [f(2, 3), 0, 1], [0, 5, f(1, 4)], [0, 0, 0], [1, 2, 3], [f(1, 5), 0, 7]]
    h = [[1, 0, 2, f(1, 3), 0, 0, 1, 4], [0, 3, 1, 0, f(1, 2), 0, 2, 0],
         [5, 0, 0, 1, 1, 0, 0, f(2, 7)]]
    return Matrix([[sum(a * b for a, b in zip(row, col)) for col in zip(*h)] for row in w])


def hexagon_chunk() -> Matrix:
    """A 7 x 8 rank-3 chunk whose section is a hexagon: a regular hexagon's
    slack matrix with its first facet row repeated, doubled, and two
    columns inside the hexagon."""
    rows = [[0, 0, 1, 2, 2, 1], [1, 0, 0, 1, 2, 2], [2, 1, 0, 0, 1, 2],
            [2, 2, 1, 0, 0, 1], [1, 2, 2, 1, 0, 0], [0, 1, 2, 2, 1, 0]]
    rows = [[*row, sum(row[:3]), sum(row[2:])] for row in rows]
    return Matrix([*rows, [2 * x for x in rows[0]]])


@pytest.fixture
def property_calls(monkeypatch):
    """A Counter of the calls to ``Fraction.numerator``, ``.denominator``
    and ``.__bool__`` made while the test runs."""
    calls = Counter()
    for name in ("numerator", "denominator"):
        slot = "_" + name
        monkeypatch.setattr(Fraction, name, property(
            lambda x, name=name, slot=slot: calls.update([name]) or getattr(x, slot)))
    real_bool = Fraction.__bool__
    monkeypatch.setattr(Fraction, "__bool__", lambda x: calls.update(["__bool__"]) or real_bool(x))
    return calls


@pytest.mark.parametrize("kind", ["mixed-fit", "heptagon", "hexagon"])
def test_per_entry_passes_call_no_fraction_property(kind, property_calls, monkeypatch):
    """The fit, the input scan, the column clearing, the product check of
    the certificate and the sign scans of both factors, on fresh copies of
    the input, call none of the three; the counter does see a direct call.
    Mixed-fit's core and the hexagon chunk take the section core's branch
    for at most 6 vertices."""
    a = {"mixed-fit": mixed_fit_shaped, "heptagon": lambda: Matrix(H7_SLACK_ROWS),
         "hexagon": hexagon_chunk}[kind]()
    property_calls.clear()

    fact = nn_factor(Matrix._raw(a.data, a.rows, a.cols))
    negative = Matrix._raw(fact.right.data[:-1] + ((Fraction(-1),) + fact.right.data[-1][1:],),
                           fact.right.rows, fact.right.cols)
    core, zero_rows, zero_cols = _strip_zero_lines(Matrix._raw(a.data, a.rows, a.cols))
    columns = cleared_columns(Matrix._raw(core.data, core.rows, core.cols))
    signs = [None, None]
    hit = product_difference(fact.left, fact.right, a, signs)
    nonnegative = fact.left.is_nonnegative() and fact.right.is_nonnegative()
    first = negative.first_negative_entry()

    assert property_calls == Counter()
    assert any([Fraction(1)]) and Fraction(1, 2).denominator == 2
    assert property_calls == Counter(["__bool__", "denominator"])
    monkeypatch.undo()
    assert (hit, signs, nonnegative) == (None, [None, None], True)
    assert first == ((negative.rows - 1, 0), Fraction(-1))
    assert len(columns) == core.cols
    if kind == "mixed-fit":
        assert (zero_rows, zero_cols) == ([2, 7], [5]) and {"method": "transpose"} in fact.trace
    if kind == "hexagon":
        assert fact.trace == ({"method": "section", "vertices": 6, "inner_dim": 6, "rows": [0, 7]},)
