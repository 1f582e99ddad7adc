"""Shared fixtures: the reference heptagon and its known reductions."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import settings

from exactnmf.canonical import CanonicalParams
from exactnmf.linalg import Matrix
from exactnmf.polygon import polygon_from_points, slack_matrix

# Property tests draw the same examples on every run, however long they take.
settings.register_profile("exactnmf", derandomize=True, deadline=None)
settings.load_profile("exactnmf")

# Reference heptagon: lattice vertices, counterclockwise, strictly convex.
H7_VERTICES = [(0, 0), (3, 0), (5, 2), (5, 5), (3, 7), (1, 6), (0, 3)]

# Slack matrix of H7_VERTICES, frozen (facet i by vertex t; facet
# functionals normalized to coprime integer coefficients).
H7_SLACK_ROWS = [
    [0, 0, 2, 5, 7, 6, 3],
    [3, 0, 0, 3, 7, 8, 6],
    [5, 2, 0, 0, 2, 4, 5],
    [10, 7, 3, 0, 0, 3, 7],
    [11, 14, 12, 6, 0, 0, 5],
    [3, 12, 16, 13, 5, 0, 0],
    [0, 3, 5, 5, 3, 1, 0],
]

# Parameter tuple recovered from the H7 slack matrix by the scaling
# recipe, and the column constants it produces.
H7_PARAMS = CanonicalParams(
    Fraction(8, 13),
    Fraction(1, 2),
    Fraction(1, 5),
    Fraction(15, 91),
    Fraction(9, 35),
    Fraction(3, 5),
)
H7_COL_CONSTANTS = (
    Fraction(175, 9),
    Fraction(35, 3),
    Fraction(1),
    Fraction(1),
    Fraction(1),
    Fraction(182, 15),
    Fraction(455, 9),
)


@pytest.fixture(scope="session")
def h7_polygon():
    return polygon_from_points(H7_VERTICES)


@pytest.fixture(scope="session")
def h7_slack(h7_polygon):
    s = slack_matrix(h7_polygon).matrix
    assert s == Matrix(H7_SLACK_ROWS)
    return s


@pytest.fixture(scope="session")
def h7_params():
    return H7_PARAMS


def primitive_columns(left: Matrix, right: Matrix):
    """(left @ D, D^-1 @ right) for the positive diagonal D that makes each
    nonzero column of ``left`` a primitive integer vector, worked out on
    Fractions: column k is scaled by the lcm of its denominators over the
    gcd of its entries times that lcm, and row k of ``right`` by the
    inverse.  This is the scaling the library chooses at assembly."""
    scales = []
    for col in zip(*left.data):
        den = lcm(*(x.denominator for x in col))
        g = gcd(*(int(x * den) for x in col))
        scales.append(Fraction(den, g) if g else Fraction(1))
    left_data = tuple(tuple(x * s for x, s in zip(row, scales)) for row in left.data)
    right_data = tuple(tuple(x / s for x in row) for row, s in zip(right.data, scales))
    return (Matrix._raw(left_data, left.rows, left.cols),
            Matrix._raw(right_data, right.rows, right.cols))


def is_primitive_column(column) -> bool:
    """Every entry an integer, and their gcd 1."""
    return all(x.denominator == 1 for x in column) and gcd(*(int(x) for x in column)) == 1
