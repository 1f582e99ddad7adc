"""Each input is cleared once.

A matrix's columns are cleared to integers by ``linalg.cleared_columns``
and kept on it beside its pivot columns, so the rank, the section and segment
cores and the cyclic core read one view; the product check clears its
own operands.  A polygon builds its slack matrix once, on first use.  These
tests count the clearings, check that the kept view is what a fresh
clearing gives, and that no reader changes it.
"""

import copy
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exactnmf import polygon
from exactnmf.canonical import CanonicalParams, orbit, step
from exactnmf.driver import nn_factor
from exactnmf.errors import NotAdmissible
from exactnmf.generate import (
    random_admissible_params,
    random_rank3_seven_by_n,
    random_rank_one,
    random_rank_two,
)
from exactnmf.linalg import Matrix, clear_denominators, cleared_columns, rank, solve
from exactnmf.rng import SplitMix64
from exactnmf.section import _factor_low_rank, _factor_seven_by_n

from conftest import H7_VERTICES
from test_one_check import count_calls, heptagons


def fresh(m: Matrix) -> Matrix:
    """An equal matrix with nothing kept on it."""
    return Matrix._raw(m.data, m.rows, m.cols)


def test_fresh_heptagon_clears_seven_lines(monkeypatch):
    """Per fresh heptagon: its 7 columns once, for the rank and the
    section core.  The closing check clears the right factor's rows itself,
    over their nonzeros alone, without ``clear_denominators``; so once the
    rank has run, ``nn_factor`` calls it not at all."""
    calls = count_calls(monkeypatch, "clear_denominators")
    for m in heptagons(count=20):
        del calls[:]
        nn_factor(m)
        assert len(calls) == 7
        ranked = fresh(m)
        rank(ranked)
        del calls[:]
        nn_factor(ranked)
        assert len(calls) == 0


def test_rank_two_core_columns_cleared_once(monkeypatch):
    """A rank-2 core: ``rank`` clears its columns and the segment core
    reads them back, so each column is cleared exactly once."""
    m = Matrix([[1, 2, 3, 4, 1], [2, 1, 3, 5, 7], [3, 3, 6, 9, 8]])  # row 3 = row 1 + row 2
    assert rank(fresh(m)) == 2
    calls = count_calls(monkeypatch, "clear_denominators")
    fact = nn_factor(m)
    assert fact.inner_dim == 2
    columns = list(zip(*m.data))
    cleared = [tuple(args[0]) for args in calls]
    assert [cleared.count(col) for col in columns] == [1] * m.cols


def test_one_slack_matrix_per_polygon(monkeypatch, h7_slack):
    """``polygon_from_points``, ``build_extension`` and ``verify_extension``
    read one slack matrix: the 7 vertices and 7 facets are cleared once."""
    calls = []
    clear = polygon.clear_denominators
    monkeypatch.setattr(polygon, "clear_denominators", lambda line: calls.append(1) or clear(line))
    poly = polygon.polygon_from_points(H7_VERTICES)
    ef = polygon.build_extension(poly)
    assert polygon.verify_extension(poly, ef).ok
    assert polygon.slack_matrix(poly).matrix is poly.slack
    assert poly.slack == h7_slack
    assert len(calls) == 14


def test_copies_start_with_nothing_kept(h7_slack):
    """A copied or unpickled matrix equals its original and keeps no pivots
    or view, and a polygon that holds its slack matrix copies and pickles."""
    rank(h7_slack)
    cleared_columns(h7_slack)
    poly = polygon.polygon_from_points(H7_VERTICES)
    for copied in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        m = copied(h7_slack)
        assert m == h7_slack and m is not h7_slack
        assert getattr(m, "_pivots", None) is None and getattr(m, "_columns", None) is None
        p = copied(poly)
        assert p == poly and p.slack == poly.slack


def test_orbit_tests_admissibility_once_per_tuple(monkeypatch, h7_params):
    """``orbit(p, 7)`` tests the start tuple once and each of the seven
    tuples it steps to once: 8 integer admissibility tests."""
    rng = SplitMix64(1)
    calls = count_calls(monkeypatch, "_admissible")
    for p in [h7_params] + [random_admissible_params(rng) for _ in range(20)]:
        del calls[:]
        assert orbit(p, 7) == p
        assert len(calls) == 8


def test_orbit_keeps_its_checks():
    """``orbit(p, 0)`` returns ``p`` unchecked, a negative index raises
    ValueError, and a non-admissible tuple the message ``step`` gives."""
    bad = CanonicalParams(*(Fraction(0),) * 6)
    assert orbit(bad, 0) is bad
    with pytest.raises(ValueError):
        orbit(bad, -1)
    with pytest.raises(NotAdmissible) as by_step:
        step(bad)
    for t in (1, 7):
        with pytest.raises(NotAdmissible, match=re.escape(str(by_step.value))):
            orbit(bad, t)


denominators = st.integers(1, 12)
entries = st.builds(Fraction, st.integers(-20, 20), denominators)


@st.composite
def shapes(draw):
    """Matrices of 0..4 rows and 0..4 columns, some columns all zero."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    if not rows:
        return Matrix.zeros(0, cols)
    if not cols:
        return Matrix.zeros(rows, 0)
    zero = draw(st.sets(st.integers(0, cols - 1)))
    return Matrix([[Fraction(0) if j in zero else draw(entries) for j in range(cols)]
                   for _ in range(rows)])


@given(shapes())
def test_cleared_columns_is_per_column_clearing(m):
    expected = [clear_denominators(m.column(j)) for j in range(m.cols)]
    assert list(cleared_columns(m)) == expected
    assert cleared_columns(m) is cleared_columns(m)  # kept, not recomputed
    for (c, d), col in zip(cleared_columns(m), m.columns()):
        assert d > 0 and [Fraction(x, d) for x in c] == list(col)


def _readers(m: Matrix):
    """What ``rank``, ``solve`` and the section and segment cores give on ``m``."""
    r = rank(m)
    out = [r, solve(m, [1] * m.rows), solve(m, m.column(0))]
    if r == 3 and m.rows == 7:
        out.append(_factor_seven_by_n(m))
    elif r <= 2:
        out.append(_factor_low_rank(m))
    return out


def _inputs():
    rng = SplitMix64(7919)
    out = heptagons(seed=7919, count=10)
    out += [random_rank3_seven_by_n(rng, 9) for _ in range(3)]
    out += [random_rank_two(rng, 4, 6) for _ in range(3)]
    out += [random_rank_one(rng, 3, 5) for _ in range(3)]
    return out


def test_readers_leave_the_kept_view_as_they_found_it():
    """Each reader gives on a matrix whose view already exists what it
    gives on a fresh copy, twice over, and the view is unchanged after."""
    for m in _inputs():
        view = copy.deepcopy(cleared_columns(m))
        first = _readers(m)
        assert first == _readers(m) == _readers(fresh(m))
        assert cleared_columns(m) == view
        assert list(view) == [clear_denominators(col) for col in zip(*m.data)]
