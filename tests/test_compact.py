"""Compact certificates: every chunk leaves with primitive integer left
columns and right rows that take the inverse scale, no inner index is
zero on either side, and files written before compaction still verify."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from exactnmf.cli import run
from exactnmf.driver import nn_factor, verify_factorization
from exactnmf.errors import DuplicateVertices, OutsidePolygon
from exactnmf.generate import random_convex_polygon
from exactnmf.linalg import Matrix
from exactnmf.polygon import build_extension, polygon_from_points, slack_matrix
from exactnmf.rng import SplitMix64
from exactnmf.section import convex_coefficients, section_polygon

from conftest import H7_VERTICES, is_primitive_column, primitive_columns
from test_driver_properties import CHUNK_METHODS, splitmix_corpus

DATA = Path(__file__).resolve().parent / "data"


def assert_compact(left: Matrix, right: Matrix):
    """Every left column primitive (so none is zero), no right row zero."""
    assert all(is_primitive_column(col) for col in zip(*left.data))
    assert all(any(row) for row in right.data)


def test_corpus_certificates_are_compact():
    """The corpus that reaches every chunk method.  A certificate made on
    the transpose is the transpose of the compact certificate of the
    transpose, so there the right rows are the primitive side."""
    reached = set()
    for a in splitmix_corpus():
        fact = nn_factor(a)
        methods = {record["method"] for record in fact.trace}
        reached |= methods
        if "transpose" in methods:
            assert_compact(fact.right.transpose(), fact.left.transpose())
        else:
            assert_compact(fact.left, fact.right)
        for record in fact.trace:
            if record["method"] == "section":
                assert record["inner_dim"] <= record["vertices"]
    assert CHUNK_METHODS <= reached, CHUNK_METHODS - reached


@pytest.mark.parametrize("n", range(7, 15))
def test_formulation_mixing_matrix_is_compact(n):
    ef = build_extension(random_convex_polygon(SplitMix64(n), n))
    assert_compact(ef.T, ef.lifts)


def test_h7_formulation_mixing_matrix_is_compact():
    ef = build_extension(polygon_from_points(H7_VERTICES))
    assert_compact(ef.T, ef.lifts)


def test_unused_section_vertices_leave_both_factors():
    """Columns at three of the six vertices of a hexagonal section, each
    a vertex, weigh only that vertex: the other three leave both factors
    and the chunk's inner dimension is 3, with the three vertices, made
    primitive, as its left columns."""
    hexagon = polygon_from_points([(0, 0), (2, 0), (3, 1), (2, 2), (0, 2), (-1, 1)])
    rows = [list(row) for row in slack_matrix(hexagon).matrix.data]
    rows.append([3 * x for x in rows[0]])  # a proportional row adds no vertex
    v = section_polygon(Matrix(rows)).vertex_matrix.columns()
    columns = [v[0], v[2], v[4]] + [[m * x for x in v[t]] for m, t in
                                    ((2, 0), (3, 2), (Fraction(1, 2), 4), (5, 0))]
    a = Matrix.from_columns(columns)
    fact = nn_factor(a)
    assert fact.trace == ({"method": "section", "vertices": 6, "inner_dim": 3,
                           "rows": [0, 7]},)
    assert fact.inner_dim == 3 and verify_factorization(a, fact).ok
    expected, _ = primitive_columns(Matrix.from_columns([v[0], v[2], v[4]]), Matrix.zeros(3, 0))
    assert sorted(zip(*fact.left.data)) == sorted(zip(*expected.data))
    assert_compact(fact.left, fact.right)


@pytest.mark.parametrize("command, factor, matrix, cert", [
    ("factor", "left", "h7_slack.json", "h7_certificate_pre_compact.json"),
    ("extend", "T", "h7_polygon.json", "h7_formulation_pre_compact.json"),
])
def test_files_written_before_compaction_still_verify(tmp_path, capsys, command, factor,
                                                      matrix, cert):
    """A heptagon certificate and formulation written by the code before
    compaction (their left factors hold fractions) pass ``verify``; what
    ``factor`` or ``extend`` writes now is shorter, and passes too."""
    matrix, cert = str(DATA / matrix), str(DATA / cert)
    assert run(["verify", "--input", matrix, "--cert", cert]) == 0
    assert capsys.readouterr().out == "verification: all checks passed\n"
    stored = json.loads(Path(cert).read_text())[factor]["entries"]
    assert any("/" in x for row in stored for x in row)
    fresh = str(tmp_path / "fresh.json")
    assert run([command, "--input", matrix, "--output", fresh]) == 0
    assert run(["verify", "--input", matrix, "--cert", fresh]) == 0
    assert len(Path(fresh).read_text()) < len(Path(cert).read_text())


def test_duplicate_vertices_message_prints_values():
    with pytest.raises(DuplicateVertices) as info:
        polygon_from_points([(0, "1/2"), (1, 0), (1, 1), (0, "1/2")])
    assert str(info.value) == "vertices 0 and 3 coincide at (0, 1/2)"


def test_outside_polygon_message_prints_values():
    """A point of the section plane beyond vertex 0, 2 v0 - v1."""
    poly = section_polygon(slack_matrix(polygon_from_points(H7_VERTICES)).matrix)
    v0, v1 = (vertex.ambient for vertex in poly.vertices[:2])
    point = tuple(2 * x - y for x, y in zip(v0, v1))
    with pytest.raises(OutsidePolygon) as info:
        convex_coefficients(poly, point)
    assert str(info.value) == f"point ({', '.join(map(str, point))}) lies outside the section polygon"
    assert "Fraction" not in str(info.value)
