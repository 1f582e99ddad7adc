"""Every error class is reachable: each ``ExactNMFError`` subclass in
``exactnmf.errors`` has a row below, a public call with no monkeypatching
that raises exactly that class.  A class with no row fails
``test_every_error_class_has_a_row``, so a class that no input can reach
does not come back unnoticed.  ``REFUSALS`` reaches the other refusals of
malformed input the same way, one public call each."""

from fractions import Fraction

import pytest

from exactnmf import errors
from exactnmf.canonical import CanonicalParams, MonomialMatrix, canonical_matrix, step
from exactnmf.cyclic import detect_cyclic_labeling, scale_to_canonical
from exactnmf.driver import nn_factor
from exactnmf.errors import ExactNMFError
from exactnmf.estimator import ExactNMF
from exactnmf.generate import random_convex_polygon
from exactnmf.linalg import Matrix, as_scalar, solve
from exactnmf.polygon import Polygon, polygon_from_points, slack_matrix
from exactnmf.rng import SplitMix64
from exactnmf.section import convex_coefficients, section_polygon

from conftest import H7_PARAMS, H7_VERTICES


def h7_section():
    return section_polygon(slack_matrix(polygon_from_points(H7_VERTICES)).matrix)


def off_plane_point():
    """Vertex 0 with one unit moved from its coordinate 1 to its coordinate
    0: the sum stays 1, but the point leaves the column space."""
    v0 = h7_section().vertices[0].ambient
    return (v0[0] + 1, v0[1] - 1, *v0[2:])


def beyond_vertex_zero():
    """2 v0 - v1: in the section plane, outside the polygon."""
    v0, v1 = (vertex.ambient for vertex in h7_section().vertices[:2])
    return tuple(2 * x - y for x, y in zip(v0, v1))


def slack_of_rank_one():
    """The heptagon's vertices built by hand with facet 0 seven times: a
    ``Polygon`` is taken as given, and its slack matrix has rank 1."""
    poly = polygon_from_points(H7_VERTICES)
    return slack_matrix(Polygon(poly.vertices, (poly.facets[0],) * 7))


ROWS = [
    (errors.DimensionError, lambda: Matrix([[1, 2], [3]]), "rows have unequal lengths"),
    (errors.RankError, lambda: nn_factor(Matrix.identity(4)), "input has rank at least 4"),
    (errors.NegativeEntryError, lambda: nn_factor([[1, Fraction(-1, 2)]]),
     r"negative entry -1/2 at \(0, 1\)"),
    (errors.NotAdmissible, lambda: step(CanonicalParams.of(0, 0, 0, 0, 0, 0)),
     "step requires an admissible tuple"),
    (errors.PatternError, lambda: detect_cyclic_labeling(Matrix.identity(7)),
     "row 0 has 6 zeros, expected 2"),
    (errors.OutsidePolygon, lambda: convex_coefficients(h7_section(), off_plane_point()),
     "point does not lie in the section plane"),
    (errors.OutsidePolygon, lambda: convex_coefficients(h7_section(), beyond_vertex_zero()),
     "lies outside the section polygon"),
    (errors.NotConvex, lambda: polygon_from_points([(0, 0), (1, 0)]),
     "a polygon needs at least 3 vertices"),
    (errors.CollinearVertices, lambda: polygon_from_points([(0, 0), (1, 0), (2, 0), (0, 1)]),
     "are collinear"),
    (errors.DuplicateVertices, lambda: polygon_from_points([(0, 0), (0, 0), (1, 1)]), "coincide"),
    (errors.NotFittedError, lambda: ExactNMF().inverse_transform(), "call fit"),
    (errors.InternalError, slack_of_rank_one, "must have rank 3, got 1"),
    (errors.ParseError, lambda: nn_factor([["abc"]]), "cannot parse 'abc' as a rational"),
]


def test_every_error_class_has_a_row():
    classes = {value for value in vars(errors).values()
               if isinstance(value, type) and issubclass(value, ExactNMFError)}
    assert classes - {ExactNMFError} == {error for error, _, _ in ROWS}


@pytest.mark.parametrize("error, call, match", ROWS,
                         ids=[error.__name__ for error, _, _ in ROWS])
def test_public_call_raises_the_class(error, call, match):
    with pytest.raises(error, match=match) as info:
        call()
    assert type(info.value) is error


def zero_pairs(pairs):
    """A 7x7 matrix whose row i is zero exactly at the columns pairs[i]."""
    return Matrix([[0 if j in pair else 1 for j in range(7)] for pair in pairs])


def shifted_canonical():
    """The canonical matrix of H7 with its rows moved up by one: the
    cyclic pattern, not in canonical order."""
    rows = canonical_matrix(H7_PARAMS).tolist()
    return Matrix(rows[1:] + rows[:1])


def set_attribute():
    Matrix.identity(2).rows = 3


# Refusals of malformed input that ``ROWS`` does not make, one public call
# each: the class and the message name the fault.
REFUSALS = [
    ("column-with-three-zeros", errors.PatternError,
     lambda: detect_cyclic_labeling(zero_pairs([(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (6, 4), (1, 2)])),
     "^column 0 has 3 zeros, expected 2$"),
    ("rows-on-one-column-pair", errors.PatternError,
     lambda: detect_cyclic_labeling(zero_pairs([(0, 1), (0, 1), (2, 3), (2, 3), (4, 5), (5, 6), (6, 4)])),
     "^rows 0 and 1 vanish on the same column pair$"),
    ("rescaling-out-of-canonical-order", errors.PatternError,
     lambda: scale_to_canonical(shifted_canonical()),
     "^matrix is not in the canonical pattern$"),
    ("solve-rhs-length", errors.DimensionError, lambda: solve(Matrix.identity(3), [1, 2]),
     "^matrix has 3 rows but rhs has 2$"),
    ("as-scalar-object", TypeError, lambda: as_scalar(object()), "as an exact rational$"),
    ("matrix-empty", errors.DimensionError, lambda: Matrix([]),
     "^use Matrix.zeros"),
    ("matrix-zeros-negative", errors.DimensionError, lambda: Matrix.zeros(-1, 1),
     "^negative dimensions$"),
    ("matrix-from-no-columns", errors.DimensionError, lambda: Matrix.from_columns([]),
     "^use Matrix.zeros"),
    ("matrix-attribute", AttributeError, set_attribute, "^Matrix is immutable$"),
    ("monomial-scales-length", errors.DimensionError, lambda: MonomialMatrix([0, 1], [1]),
     "^one scale per row required$"),
    ("convex-coefficients-point-length", errors.DimensionError,
     lambda: convex_coefficients(h7_section(), (1, 0)),
     "^point dimension does not match the section$"),
    ("below-zero", ValueError, lambda: SplitMix64(1).below(0),
     "^below\\(\\) needs a positive bound$"),
    ("polygon-of-two", ValueError, lambda: random_convex_polygon(SplitMix64(1), 2),
     "^a polygon needs at least 3 vertices$"),
]


@pytest.mark.parametrize("error, call, match", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_malformed_input_is_refused(error, call, match):
    with pytest.raises(error, match=match) as info:
        call()
    assert type(info.value) is error
