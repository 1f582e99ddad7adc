"""Simplex sectioning, convex coefficients, and the rank dispatchers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactnmf import section
from exactnmf.errors import DimensionError, OutsidePolygon, RankError
from exactnmf.generate import (
    random_convex_polygon,
    random_rank3_seven_by_n,
    random_rank_one,
    random_rank_two,
)
from exactnmf.linalg import Matrix, rank
from exactnmf.polygon import slack_matrix
from exactnmf.rng import SplitMix64
from exactnmf.section import (
    convex_coefficients,
    factor_low_rank,
    factor_seven_by_n,
    normalize_columns,
    section_polygon,
)


def identity_columns(count):
    return Matrix.from_columns(
        [tuple(1 if i == j else 0 for i in range(7)) for j in range(count)]
    )


class TestNormalizeColumns:
    def test_simple_column(self):
        a = Matrix.from_columns([(2, 0, 2, 0, 0, 0, 0)])
        normalized, sums, zero_cols = normalize_columns(a)
        assert normalized.column(0) == (
            Fraction(1, 2), 0, Fraction(1, 2), 0, 0, 0, 0,
        )
        assert sums == (4,)
        assert zero_cols == ()

    def test_zero_column_recorded(self):
        a = Matrix.from_columns([(1, 1), (0, 0), (3, 0)])
        normalized, sums, zero_cols = normalize_columns(a)
        assert zero_cols == (1,)
        assert normalized.cols == 2
        assert sums == (2, 3)

    def test_round_trip(self):
        rng = SplitMix64(51)
        for _ in range(20):
            rows, cols = rng.below(5) + 1, rng.below(6) + 1
            data = [
                [Fraction(rng.below(5), rng.below(3) + 1) for _ in range(cols)]
                for _ in range(rows)
            ]
            a = Matrix(data)
            normalized, sums, zero_cols = normalize_columns(a)
            rebuilt_cols = []
            src = 0
            for j in range(cols):
                if j in zero_cols:
                    rebuilt_cols.append((Fraction(0),) * rows)
                else:
                    col = normalized.column(src)
                    rebuilt_cols.append(tuple(x * sums[src] for x in col))
                    src += 1
            assert Matrix.from_columns(rebuilt_cols) == a


class TestSectionPolygon:
    def test_coordinate_simplex_face(self):
        poly = section_polygon(identity_columns(3))
        assert poly.k == 3
        ambient = sorted(v.ambient for v in poly.vertices)
        expected = sorted(
            tuple(Fraction(1 if i == j else 0) for i in range(7)) for j in range(3)
        )
        assert ambient == expected

    def test_h7_slack_sections_to_seven_vertices(self, h7_slack):
        poly = section_polygon(h7_slack)
        assert poly.k == 7
        for vertex in poly.vertices:
            assert len(vertex.tight) == 2

    def test_vertices_satisfy_membership_exactly(self, h7_slack):
        poly = section_polygon(h7_slack)
        for vertex in poly.vertices:
            assert sum(vertex.ambient) == 1
            for i, x in enumerate(vertex.ambient):
                if i in vertex.tight:
                    assert x == 0
                else:
                    assert x > 0

    def test_vertices_ordered_counterclockwise(self, h7_slack):
        poly = section_polygon(h7_slack)
        pts = [v.chart for v in poly.vertices]
        k = len(pts)
        for i in range(k):
            o, a, b = pts[i], pts[(i + 1) % k], pts[(i + 2) % k]
            cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
            assert cross > 0

    def test_rank_enforced(self):
        with pytest.raises(RankError):
            section_polygon(identity_columns(4))

    def test_row_count_enforced(self):
        with pytest.raises(DimensionError):
            section_polygon(Matrix.identity(3))


class TestConvexCoefficients:
    def test_vertex_gives_unit_vector(self, h7_slack):
        poly = section_polygon(h7_slack)
        for t, vertex in enumerate(poly.vertices):
            coeffs = convex_coefficients(poly, vertex.ambient)
            assert coeffs[t] == 1
            assert all(c == 0 for s, c in enumerate(coeffs) if s != t)

    def test_edge_midpoint(self, h7_slack):
        poly = section_polygon(h7_slack)
        va, vb = poly.vertices[2].ambient, poly.vertices[3].ambient
        midpoint = tuple((x + y) / 2 for x, y in zip(va, vb))
        coeffs = convex_coefficients(poly, midpoint)
        assert coeffs[2] == Fraction(1, 2) and coeffs[3] == Fraction(1, 2)
        assert sum(coeffs) == 1

    def test_normalized_columns_reproduce(self):
        rng = SplitMix64(52)
        a = random_rank3_seven_by_n(rng, 12)
        poly = section_polygon(a)
        normalized, _, _ = normalize_columns(a)
        for j in range(normalized.cols):
            col = normalized.column(j)
            coeffs = convex_coefficients(poly, col)
            assert sum(coeffs) == 1
            assert all(c >= 0 for c in coeffs)
            assert sum(1 for c in coeffs if c != 0) <= 3
            rebuilt = tuple(
                sum(coeffs[s] * poly.vertices[s].ambient[i] for s in range(poly.k))
                for i in range(7)
            )
            assert rebuilt == col

    def test_outside_point_rejected(self, h7_slack):
        poly = section_polygon(h7_slack)
        va, vb = poly.vertices[0].ambient, poly.vertices[1].ambient
        outside = tuple(2 * x - y for x, y in zip(va, vb))  # beyond vertex 0
        with pytest.raises(OutsidePolygon):
            convex_coefficients(poly, outside)

    def test_point_off_plane_rejected(self, h7_slack):
        poly = section_polygon(h7_slack)
        with pytest.raises(OutsidePolygon):
            convex_coefficients(poly, (1, 0, 0, 0, 0, 0, 0))


class TestFactorSevenByN:
    def test_pentagon_section_inner_five(self):
        rng = SplitMix64(53)
        s5 = slack_matrix(random_convex_polygon(rng, 5)).matrix
        rows = s5.tolist()
        # two redundant constraints: sums of facet rows with disjoint zeros
        rows.append([a + b for a, b in zip(s5.row(0), s5.row(2))])
        rows.append([a + b for a, b in zip(s5.row(1), s5.row(3))])
        a = Matrix(rows)
        assert rank(a) == 3
        left, right, info = factor_seven_by_n(a)
        assert left.cols == 5
        assert left @ right == a
        assert info["method"] == "section"

    def test_h7_slack_inner_six(self, h7_slack):
        left, right, info = factor_seven_by_n(h7_slack)
        assert left.cols == 6
        assert left @ right == h7_slack
        assert left.is_nonnegative() and right.is_nonnegative()
        assert info["method"] == "section+cyclic"

    def test_random_7xn_instances(self):
        rng = SplitMix64(54)
        for _ in range(8):
            a = random_rank3_seven_by_n(rng, 20)
            left, right, _ = factor_seven_by_n(a)
            assert left.cols <= 6
            assert left @ right == a
            assert left.is_nonnegative() and right.is_nonnegative()

    def test_proportional_rows_merge_to_smaller_section(self):
        # a duplicated constraint can never support a seventh edge
        rng = SplitMix64(57)
        s6 = slack_matrix(random_convex_polygon(rng, 6)).matrix
        rows = s6.tolist()
        rows.append([3 * x for x in s6.row(0)])  # proportional to row 0
        a = Matrix(rows)
        assert rank(a) == 3
        poly = section_polygon(a)
        assert poly.k == 6
        left, right, info = factor_seven_by_n(a)
        assert left.cols == 6
        assert left @ right == a
        assert info["method"] == "section"

    def test_zero_columns_pass_through(self, h7_slack):
        cols = h7_slack.columns()
        cols.insert(3, (Fraction(0),) * 7)
        a = Matrix.from_columns(cols)
        left, right, _ = factor_seven_by_n(a)
        assert left @ right == a
        assert right.column(3) == (Fraction(0),) * right.rows


class TestFactorLowRank:
    def test_zero_matrix(self):
        a = Matrix.zeros(4, 5)
        left, right, info = factor_low_rank(a)
        assert left.shape == (4, 0) and right.shape == (0, 5)
        assert left @ right == a
        assert info["inner_dim"] == 0

    def test_outer_product(self):
        rng = SplitMix64(55)
        a = random_rank_one(rng, 5, 6)
        left, right, info = factor_low_rank(a)
        assert left.cols == 1
        assert left @ right == a
        assert info["inner_dim"] == 1

    def test_rank_two_random(self):
        rng = SplitMix64(56)
        for _ in range(20):
            a = random_rank_two(rng, rng.below(5) + 2, rng.below(5) + 2)
            left, right, _ = factor_low_rank(a)
            assert left.cols == 2
            assert left @ right == a
            assert left.is_nonnegative() and right.is_nonnegative()

    def test_rank_two_with_zero_rows_and_columns(self):
        base = Matrix([[1, 2, 0, 3], [2, 1, 0, 0], [0, 0, 0, 0], [3, 3, 0, 3]])
        assert rank(base) == 2
        left, right, _ = factor_low_rank(base)
        assert left @ right == base

    def test_rank_three_rejected(self, h7_slack):
        with pytest.raises(RankError):
            factor_low_rank(h7_slack)


# -- the integer candidate loop against the Fraction loop it replaced -------


def fraction_extreme_points(lines):
    """The candidate loop of ``section_polygon`` as it was on Fraction
    lines (u, v, o), verbatim."""
    candidates = []
    for s in range(len(lines)):
        u1, v1, o1 = lines[s]
        for t in range(s + 1, len(lines)):
            u2, v2, o2 = lines[t]
            det = u1 * v2 - u2 * v1
            if det == 0:
                continue
            x = (-o1 * v2 + o2 * v1) / det
            y = (-u1 * o2 + u2 * o1) / det
            if all(o + x * u + y * v >= 0 for (u, v, o) in lines):
                point = (x, y)
                if point not in candidates:
                    candidates.append(point)
    return candidates


coordinates = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
)
positive = st.builds(Fraction, st.integers(1, 10**20), st.integers(1, 10**20))


@st.composite
def constraint_lines(draw):
    """2..8 lines u*x + v*y + o >= 0: free ones, ones through a shared
    point (so several meet at one candidate), and signed multiples of
    earlier ones (parallel, or the same line)."""
    x0, y0 = draw(coordinates), draw(coordinates)
    lines = []
    for _ in range(draw(st.integers(2, 8))):
        kind = draw(st.sampled_from(["free", "through", "multiple"]))
        u, v, o = draw(coordinates), draw(coordinates), draw(coordinates)
        if kind == "through":
            o = -(u * x0 + v * y0)
        elif kind == "multiple" and lines:
            lam = draw(positive) * draw(st.sampled_from([1, -1]))
            u, v, o = (lam * c for c in draw(st.sampled_from(lines)))
        lines.append((u, v, o))
    return lines


@settings(max_examples=400)
@given(constraint_lines())
def test_extreme_points_match_fraction_loop(lines):
    assert section._extreme_points(lines) == fraction_extreme_points(lines)


@st.composite
def seven_row_sections(draw):
    """7 x k nonnegative rank-3 matrices whose section is a k-gon: the
    slack rows of a random k-gon plus redundant rows that are zero,
    positive multiples of a facet row, or positive combinations of two
    facet rows (of adjacent facets, such a line passes through a vertex)."""
    k = draw(st.integers(3, 7))
    slack = slack_matrix(random_convex_polygon(SplitMix64(draw(st.integers(0, 2**32))), k))
    facets = slack.matrix.data
    rows = list(facets)
    while len(rows) < 7:
        kind = draw(st.sampled_from(["zero", "multiple", "adjacent", "any-two"]))
        i = draw(st.integers(0, k - 1))
        j = (i + 1) % k if kind == "adjacent" else draw(st.integers(0, k - 1))
        lam, mu = draw(positive), draw(positive)
        if kind == "zero":
            row = (Fraction(0),) * k
        elif kind == "multiple":
            row = tuple(lam * x for x in facets[i])
        else:
            row = tuple(lam * x + mu * y for x, y in zip(facets[i], facets[j]))
        rows.insert(draw(st.integers(0, len(rows))), row)
    return Matrix(rows), k


@settings(max_examples=100)
@given(seven_row_sections())
def test_section_vertices_match_fraction_loop(case):
    a, k = case
    poly = section_polygon(a)
    lines = [
        (poly.chart_u[i], poly.chart_v[i], poly.chart_origin[i])
        for i in section._proportional_groups(a)
    ]
    expected = section._angular_ccw_sort(fraction_extreme_points(lines))
    assert [v.chart for v in poly.vertices] == expected
    assert poly.k == k
