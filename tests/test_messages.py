"""Failure messages print values with ``linalg.format_value``: "p" or
"p/q" as files hold them, never a Fraction repr, and a stand-in that names
the digit count where ``str`` would refuse a value over MAX_DIGITS digits,
so a message never ends in a traceback."""

from fractions import Fraction

import pytest

from exactnmf import ExactNMF, canonical, cyclic
from exactnmf.canonical import CanonicalParams, canonical_matrix, direct_factor, factor_canonical, step
from exactnmf.driver import nn_factor
from exactnmf.errors import (
    DimensionError,
    DuplicateVertices,
    InternalError,
    NegativeEntryError,
    NotAdmissible,
    ParseError,
)
from exactnmf.linalg import format_value
from exactnmf.polygon import polygon_from_points
from exactnmf.validation import as_point

from conftest import H7_PARAMS

H7_SHOWN = "(8/13, 1/2, 1/5, 15/91, 9/35, 3/5)"


@pytest.mark.parametrize("value, shown", [
    (Fraction(-7, 3), "-7/3"),
    (5, "5"),
    (Fraction(10**4299), "1" + "0" * 4299),
    (Fraction(10**4300), "<number of 4301 digits>"),
    (Fraction(-(10**2999), 3 * 10**1300 + 1), "<number of 4301 digits>"),
    (-(10**5000), "<number of 5001 digits>"),
    ("1/2", "'1/2'"),
    (True, "True"),
], ids=["fraction", "int", "at-limit", "past-limit", "past-limit-p/q", "huge-int", "str", "bool"])
def test_format_value(value, shown):
    assert format_value(value) == shown


def test_negative_entry_over_the_digit_limit():
    with pytest.raises(NegativeEntryError,
                       match=r"^input matrix has negative entry <number of 5001 digits> at \(0, 0\)$"):
        nn_factor([[Fraction(-(10**5000))]])


def test_duplicate_vertices_over_the_digit_limit():
    with pytest.raises(DuplicateVertices,
                       match=r"^vertices 0 and 1 coincide at \(<number of 5001 digits>, 0\)$"):
        polygon_from_points([(10**5000, 0), (10**5000, 0), (1, 1)])


def test_as_point_names_its_coordinates():
    with pytest.raises(DimensionError, match=r"^expected a 2-coordinate point, got \(1, 1/2, 3\)$"):
        as_point((1, Fraction(1, 2), 3))
    with pytest.raises(DimensionError, match=r"got \('x'\)$"):
        as_point(["x"])


# -- the canonical and cyclic sites print the six values ---------------------


def never(*args):
    return False


def test_checked_prints_the_tuple():
    with pytest.raises(NotAdmissible,
                       match=r"^step requires an admissible tuple, got \(0, 0, 0, 0, 0, 0\)$"):
        step(CanonicalParams.of(0, 0, 0, 0, 0, 0))


def test_step_prints_both_tuples():
    rows = canonical._rows(CanonicalParams.of(1, 1, 1, 0, 0, 0))
    with pytest.raises(InternalError) as info:
        canonical._step(rows)
    assert str(info.value) == \
        "stepped tuple lost admissibility: (1, 1, 1, 0, 0, 0) -> (0, 0, 0, 1, 1, 1)"


def test_direct_factor_prints_the_tuple(monkeypatch):
    monkeypatch.setattr(canonical, "is_certificate", never)
    with pytest.raises(InternalError) as info:
        direct_factor(H7_PARAMS)
    assert str(info.value) == f"direct factor failed its verification for {H7_SHOWN}"


def test_factor_canonical_prints_the_tuple(monkeypatch):
    monkeypatch.setattr(canonical, "is_certificate", never)
    with pytest.raises(InternalError) as info:
        factor_canonical(H7_PARAMS)
    assert str(info.value) == f"assembled certificate failed verification for {H7_SHOWN}"


def test_search_prints_the_tuple(monkeypatch):
    monkeypatch.setattr(canonical, "_middle_min", never)
    with pytest.raises(InternalError) as info:
        factor_canonical(H7_PARAMS)
    assert str(info.value).startswith(f"no factorization within 14 search steps for {H7_SHOWN};")


def test_scale_to_canonical_prints_the_tuple(monkeypatch):
    monkeypatch.setattr(canonical, "_admissible", lambda rows: None)
    with pytest.raises(InternalError) as info:
        cyclic.scale_to_canonical(canonical_matrix(H7_PARAMS))
    assert str(info.value) == f"rescaled parameters {H7_SHOWN} are not admissible"


@pytest.mark.parametrize("call, token", [
    (lambda: nn_factor([["abc"]]), "'abc'"),
    (lambda: nn_factor([["1/0"]]), "'1/0'"),
    (lambda: polygon_from_points([("x", 0), (1, 0), (0, 1)]), "'x'"),
    (lambda: ExactNMF().fit([["1/0"]]), "'1/0'"),
    (lambda: nn_factor([[float("nan")]]), "nan"),
    (lambda: nn_factor([[float("inf")]]), "inf"),
    (lambda: ExactNMF().fit([[1, float("-inf")]]), "-inf"),
    (lambda: polygon_from_points([(float("inf"), 0), (1, 0), (0, 1)]), "inf"),
], ids=["nn_factor-text", "nn_factor-zero-denominator", "polygon_from_points", "ExactNMF.fit",
        "nn_factor-nan", "nn_factor-inf", "ExactNMF.fit-inf", "polygon_from_points-inf"])
def test_a_string_that_is_no_number_is_a_parse_error(call, token):
    """A string entry or coordinate that is not a rational, or a float that
    is NaN or infinite, ends in a ParseError naming it, as
    ``serialize.parse_scalar`` words a bad token (a float's reason is
    ``not finite``)."""
    with pytest.raises(ParseError, match=f"^cannot parse {token} as a rational: "):
        call()

