"""Every error class is reachable: each ``ExactNMFError`` subclass in
``exactnmf.errors`` has a row below, a public call with no monkeypatching
that raises exactly that class.  A class with no row fails
``test_every_error_class_has_a_row``, so a class that no input can reach
does not come back unnoticed."""

from fractions import Fraction

import pytest

from exactnmf import errors
from exactnmf.canonical import CanonicalParams, step
from exactnmf.cyclic import detect_cyclic_labeling
from exactnmf.driver import nn_factor
from exactnmf.errors import ExactNMFError
from exactnmf.estimator import ExactNMF
from exactnmf.linalg import Matrix
from exactnmf.polygon import Polygon, polygon_from_points, slack_matrix
from exactnmf.section import convex_coefficients, section_polygon

from conftest import H7_VERTICES


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


def facet_zero_misses_vertex_zero():
    """The heptagon built by hand with facet 0 moved off vertex 0."""
    poly = polygon_from_points(H7_VERTICES)
    (cx, cy, beta), *rest = poly.facets
    return Polygon(poly.vertices, ((cx, cy, beta + 1), *rest))


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
    (errors.InternalError, lambda: facet_zero_misses_vertex_zero().slack,
     "vertex 0 misses its own facet 0"),
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
