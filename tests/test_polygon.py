"""Polygons, slack matrices, and lifted descriptions."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactnmf.driver import VerificationReport, inner_dimension_bound
from exactnmf.errors import (
    CollinearVertices,
    DuplicateVertices,
    ExactNMFError,
    InternalError,
    NotConvex,
)
from exactnmf.generate import random_convex_polygon
from exactnmf.linalg import Matrix, is_product, rank
from exactnmf import polygon
from exactnmf.polygon import (
    ExtendedFormulation,
    Polygon,
    _cross,
    _facet_through,
    build_extension,
    polygon_from_points,
    slack_matrix,
    verify_extension,
)
from exactnmf.rng import SplitMix64
from exactnmf.validation import as_point
from test_linalg_kernel import oracle_rank

SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


class TestPolygonFromPoints:
    def test_square_facets(self):
        poly = polygon_from_points(SQUARE)
        assert set(poly.facets) == {
            (Fraction(0), Fraction(1), Fraction(0)),      # y >= 0
            (Fraction(-1), Fraction(0), Fraction(-1)),    # -x >= -1
            (Fraction(0), Fraction(-1), Fraction(-1)),    # -y >= -1
            (Fraction(1), Fraction(0), Fraction(0)),      # x >= 0
        }

    def test_h7_cross_products_positive(self, h7_polygon):
        assert h7_polygon.n == 7
        verts = h7_polygon.vertices
        for i in range(7):
            o, a, b = verts[i], verts[(i + 1) % 7], verts[(i + 2) % 7]
            cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
            assert cross > 0

    def test_clockwise_input_reversed(self):
        poly = polygon_from_points(list(reversed(SQUARE)))
        verts = poly.vertices
        for i in range(4):
            o, a, b = verts[i], verts[(i + 1) % 4], verts[(i + 2) % 4]
            assert (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0]) > 0

    def test_collinear_rejected(self):
        with pytest.raises(CollinearVertices):
            polygon_from_points([(0, 0), (1, 0), (2, 0), (0, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateVertices):
            polygon_from_points([(0, 0), (1, 0), (1, 0), (0, 1)])

    def test_nonconvex_rejected(self):
        with pytest.raises(NotConvex):
            polygon_from_points([(0, 0), (4, 0), (1, 1), (0, 4)])

    def test_star_walk_rejected(self):
        # pentagram order: every turn has the same sign but the walk wraps twice
        pts = [(0, 10), (6, -8), (-9, 3), (9, 3), (-6, -8)]
        with pytest.raises(NotConvex):
            polygon_from_points(pts)

    def test_vertex_on_another_facet_line_rejected(self):
        # every turn is a left turn, but vertex 3 lies on the line of facet 0
        pts = [(0, -3), (-2, -1), (1, -3), (-3, -2), (3, -3)]
        with pytest.raises(NotConvex, match="vertex 3 does not satisfy facet 0"):
            polygon_from_points(pts)

    def test_rational_vertices(self):
        poly = polygon_from_points([("1/2", 0), ("3/2", "1/3"), (1, 2)])
        assert poly.n == 3


class TestSlackMatrix:
    def test_zero_pattern_square(self):
        poly = polygon_from_points(SQUARE)
        s = slack_matrix(poly).matrix
        for i in range(4):
            for t in range(4):
                expected_zero = t == i or t == (i + 1) % 4
                assert (s[i, t] == 0) == expected_zero

    def test_h7_rank_three(self, h7_slack):
        assert rank(h7_slack) == 3

    def test_square_rank_three(self):
        s = slack_matrix(polygon_from_points(SQUARE))
        assert s.rank == 3 and s.matrix.shape == (4, 4)

    def test_nonnegative_everywhere(self):
        rng = SplitMix64(71)
        for n in (3, 5, 9):
            s = slack_matrix(random_convex_polygon(rng, n)).matrix
            assert s.is_nonnegative()


class TestBuildExtension:
    def test_heptagon_six_inequalities(self, h7_polygon):
        ef = build_extension(h7_polygon)
        assert ef.k <= 6

    def test_square_trivial_branch(self):
        ef = build_extension(polygon_from_points(SQUARE))
        assert ef.k <= 4

    def test_fourteen_gon(self):
        rng = SplitMix64(72)
        poly = random_convex_polygon(rng, 14)
        ef = build_extension(poly)
        assert ef.k <= 12

    def test_verifies_for_random_ngons(self):
        rng = SplitMix64(73)
        for n in (3, 4, 6, 7, 8, 11, 13, 20):
            poly = random_convex_polygon(rng, n)
            ef = build_extension(poly)
            report = verify_extension(poly, ef)
            assert report.ok, (n, report.failures)
            if n >= 7:
                assert ef.k < n


class TestVerifyExtension:
    def test_all_checks_pass_on_h7(self, h7_polygon):
        ef = build_extension(h7_polygon)
        assert verify_extension(h7_polygon, ef).ok

    def test_negated_lift_entry_named(self, h7_polygon):
        ef = build_extension(h7_polygon)
        rows = ef.lifts.tolist()
        found = None
        for r, row in enumerate(rows):
            for t, x in enumerate(row):
                if x > 0:
                    rows[r][t] = -x
                    found = t
                    break
            if found is not None:
                break
        tampered = ExtendedFormulation(
            ef.k, ef.T, ef.C, ef.beta, Matrix(rows)
        )
        report = verify_extension(h7_polygon, tampered)
        assert not report.ok
        assert any(
            f"vertex {found}" in failure and "negative" in failure
            for failure in report.failures
        )

    def test_inequality_count_check(self, h7_polygon):
        # claim k = n by padding with zero columns: check 4 must fail for n >= 7
        ef = build_extension(h7_polygon)
        n = h7_polygon.n
        pad = n - ef.k
        t_cols = ef.T.columns() + [(Fraction(0),) * n] * pad
        lift_rows = ef.lifts.tolist() + [[Fraction(0)] * n] * pad
        padded = ExtendedFormulation(
            n,
            Matrix.from_columns(t_cols),
            ef.C,
            ef.beta,
            Matrix(lift_rows),
        )
        report = verify_extension(h7_polygon, padded)
        assert not report.ok
        assert any("exceed the bound" in f for f in report.failures)

    def test_broken_reconstruction_named(self, h7_polygon):
        ef = build_extension(h7_polygon)
        rows = ef.T.tolist()
        rows[0][0] = rows[0][0] + 1
        tampered = ExtendedFormulation(ef.k, Matrix(rows), ef.C, ef.beta, ef.lifts)
        report = verify_extension(h7_polygon, tampered)
        assert not report.ok
        assert any("reconstruction" in f for f in report.failures)


# -- oracles: the Fraction code that polygon_from_points and verify_extension
# ran before slack values came from one integer table, kept verbatim -------


def oracle_polygon_from_points(points):
    vertices = [as_point(p) for p in points]
    n = len(vertices)
    if n < 3:
        raise NotConvex(f"a polygon needs at least 3 vertices, got {n}")
    for i in range(n):
        for j in range(i + 1, n):
            if vertices[i] == vertices[j]:
                raise DuplicateVertices("vertices {} and {} coincide at ({}, {})".format(i, j, *vertices[i]))

    turns = []
    for i in range(n):
        turn = _cross(vertices[i], vertices[(i + 1) % n], vertices[(i + 2) % n])
        if turn == 0:
            raise CollinearVertices(
                f"vertices {i}, {(i + 1) % n}, {(i + 2) % n} are collinear"
            )
        turns.append(turn)
    if all(t < 0 for t in turns):
        vertices = [vertices[0]] + vertices[:0:-1]
    elif not all(t > 0 for t in turns):
        raise NotConvex("vertex walk changes turning direction")

    facets = tuple(
        _facet_through(vertices[i], vertices[(i + 1) % n]) for i in range(n)
    )
    poly = Polygon(tuple(vertices), facets)
    for i in range(n):
        for t in range(n):
            value = poly.facet_value(i, vertices[t])
            incident = t == i or t == (i + 1) % n
            if incident and value != 0:
                raise InternalError(f"vertex {t} misses its own facet {i}")
            if not incident and value <= 0:
                raise NotConvex(
                    f"vertex {t} does not satisfy facet {i} strictly; "
                    "the walk is not a simple convex boundary"
                )
    return poly


def oracle_slack(poly):
    n = poly.n
    return Matrix(
        [[poly.facet_value(i, poly.vertices[t]) for t in range(n)] for i in range(n)]
    )


def oracle_verify_extension(poly, ef):
    report = VerificationReport()
    n = poly.n
    slack = oracle_slack(poly)

    if (
        ef.T.shape != (n, ef.k)
        or ef.lifts.shape != (ef.k, n)
        or ef.C.shape != (n, 2)
        or len(ef.beta) != n
    ):
        report.failures.append(
            f"shape mismatch: T is {ef.T.shape}, lifts is {ef.lifts.shape}, "
            f"C is {ef.C.shape}, |beta| is {len(ef.beta)}; expected ({n}, {ef.k}), "
            f"({ef.k}, {n}), ({n}, 2) and {n}"
        )
        return report

    if is_product(ef.T, ef.lifts, slack):
        product = slack
    else:
        product = ef.T @ ef.lifts
        for i in range(n):
            for t in range(n):
                if product.data[i][t] != slack.data[i][t]:
                    report.failures.append(
                        f"slack reconstruction fails at facet {i}, vertex {t}: "
                        f"{product.data[i][t]} != {slack.data[i][t]}"
                    )
                    break
            else:
                continue
            break

    for t in range(n):
        lift = ef.lifts.column(t)
        negative = next(((r, y) for r, y in enumerate(lift) if y < 0), None)
        if negative is not None:
            report.failures.append(
                f"lift of vertex {t} has negative coordinate {negative[0]} "
                f"(value {negative[1]})"
            )
            continue
        px, py = poly.vertices[t]
        for i in range(n):
            cx, cy = ef.C.data[i]
            slack_value = cx * px + cy * py - ef.beta[i]
            lifted = product.data[i][t]
            if slack_value != lifted:
                report.failures.append(
                    f"equality {i} fails at vertex {t}: "
                    f"{slack_value} != {lifted}"
                )
                break

    hit = ef.T.first_negative_entry()
    if hit is not None:
        (i, j), x = hit
        report.failures.append(f"mixing matrix has negative entry {x} at ({i}, {j})")

    bound = inner_dimension_bound(n, n)
    if ef.k > bound:
        report.failures.append(
            f"{ef.k} inequalities exceed the bound ceil(6n/7) = {bound}"
        )
    return report


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ExactNMFError as exc:
        return type(exc), str(exc)


big_rationals = st.builds(
    Fraction,
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=1, max_value=2**70),
)


@st.composite
def vertex_walks(draw):
    """Vertices of a random convex polygon under a random rational affine
    map (large denominators, either orientation), walked in order or with
    a stride, which gives self-wrapping star walks."""
    n = draw(st.integers(min_value=3, max_value=12))
    poly = random_convex_polygon(SplitMix64(draw(st.integers(0, 2**32))), n)
    a, b, c, d, e, f = (draw(big_rationals) for _ in range(6))
    if a * d == b * c:
        a += 1
    points = [(a * x + b * y + e, c * x + d * y + f) for x, y in poly.vertices]
    stride = draw(st.sampled_from([s for s in range(1, n) if gcd(s, n) == 1]))
    return [points[(i * stride) % n] for i in range(n)]


@settings(max_examples=150)
@given(vertex_walks())
def test_slack_table_matches_fraction_code(points):
    poly = _outcome(polygon_from_points, points)
    assert poly == _outcome(oracle_polygon_from_points, points)
    if isinstance(poly, Polygon):
        assert slack_matrix(poly).matrix == oracle_slack(poly)


def _tampered(ef, rng):
    """Formulations that break one equality: a facet row scaled by 2 with
    its beta, a changed beta, a negated lift entry, two facets swapped, a
    facet row scaled without its beta."""
    n = len(ef.beta)
    i = rng.below(n)
    c_rows, beta = [list(row) for row in ef.C.data], list(ef.beta)
    scaled_c = [row[:] for row in c_rows]
    scaled_c[i] = [2 * x for x in scaled_c[i]]
    scaled_beta = beta[:]
    scaled_beta[i] *= 2
    shifted_beta = beta[:]
    shifted_beta[i] += Fraction(1, 3)
    j = (i + 1) % n
    swapped_c = [row[:] for row in c_rows]
    swapped_c[i], swapped_c[j] = swapped_c[j], swapped_c[i]
    swapped_beta = beta[:]
    swapped_beta[i], swapped_beta[j] = swapped_beta[j], swapped_beta[i]
    lifts = ef.lifts.tolist()
    r, t = next((r, t) for r, row in enumerate(lifts) for t, x in enumerate(row) if x)
    lifts[r][t] = -lifts[r][t]
    return [
        ExtendedFormulation(ef.k, ef.T, Matrix(scaled_c), tuple(scaled_beta), ef.lifts),
        ExtendedFormulation(ef.k, ef.T, ef.C, tuple(shifted_beta), ef.lifts),
        ExtendedFormulation(ef.k, ef.T, ef.C, ef.beta, Matrix(lifts)),
        ExtendedFormulation(ef.k, ef.T, Matrix(swapped_c), tuple(swapped_beta), ef.lifts),
        ExtendedFormulation(ef.k, ef.T, Matrix(scaled_c), ef.beta, ef.lifts),
    ]


def test_verify_extension_matches_fraction_code(h7_polygon):
    rng = SplitMix64(74)
    polygons = [h7_polygon] + [random_convex_polygon(rng, n) for n in (3, 4, 5, 7, 9, 12)]
    equality_failures = 0
    for poly in polygons:
        ef = build_extension(poly)
        for candidate in [ef] + _tampered(ef, rng):
            report = verify_extension(poly, candidate)
            assert report.failures == oracle_verify_extension(poly, candidate).failures
            equality_failures += any(f.startswith("equality") for f in report.failures)
        assert verify_extension(poly, ef).ok
    # the scaled, shifted, swapped and half-scaled facets each fail an equality
    assert equality_failures == 4 * len(polygons)


# -- the rank verify_extension does not compute ------------------------------


@pytest.mark.parametrize("seed", [1, 7919])
def test_slack_rank_is_three_on_generated_polygons(seed):
    """The property that lets ``verify_extension`` skip the rank: every
    generated polygon, n = 3..50, has a slack matrix of rank 3, by the
    library's elimination and by the Fraction oracle's."""
    rng = SplitMix64(seed)
    for n in range(3, 51):
        poly = random_convex_polygon(rng, n)
        assert slack_matrix(poly).rank == 3
        assert oracle_rank(poly.slack) == 3


def test_verify_extension_computes_no_rank(h7_polygon, monkeypatch):
    ef = build_extension(h7_polygon)

    def no_rank(m):
        raise AssertionError("rank called")

    monkeypatch.setattr(polygon, "rank", no_rank)
    assert verify_extension(h7_polygon, ef).ok
    with pytest.raises(AssertionError, match="rank called"):
        build_extension(h7_polygon)
