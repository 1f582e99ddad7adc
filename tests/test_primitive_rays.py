"""The section core hands on primitive vertex rays: every integer ray
``x`` that ``_factor_seven_by_n`` gives the cyclic core and the fan pass
has gcd 1, and is handed on bare, the vertex itself, with no scale.
Counted on integers, over seeded heptagon slack matrices and 7-row hexagon
slack matrices (one facet row repeated, so the section has 6 vertices)."""

from math import gcd

import pytest

from exactnmf import section
from exactnmf.generate import random_convex_polygon
from exactnmf.linalg import Matrix, is_product
from exactnmf.polygon import slack_matrix
from exactnmf.rng import SplitMix64


def seeded_chunks(seed, count):
    rng = SplitMix64(seed)
    for index in range(count):
        if index % 4 == 3:
            rows = slack_matrix(random_convex_polygon(rng, 6)).matrix.data
            yield Matrix([*rows, [2 * x for x in rows[index % 6]]]), 6
        else:
            yield slack_matrix(random_convex_polygon(rng, 7)).matrix, 7


@pytest.mark.parametrize("seed", [1, 7919])
def test_rays_handed_on_are_primitive(monkeypatch, seed):
    handed = {"cyclic": [], "fan": []}
    factor_cyclic, convex_weights = section._factor_cyclic, section._convex_weights

    def record_cyclic(columns, labeling):
        handed["cyclic"].append(list(columns))
        return factor_cyclic(columns, labeling)

    def record_fan(rays, cleared, lines):
        handed["fan"].append(list(rays))
        return convex_weights(rays, cleared, lines)

    monkeypatch.setattr(section, "_factor_cyclic", record_cyclic)
    monkeypatch.setattr(section, "_convex_weights", record_fan)
    vertices = []
    for a, k in seeded_chunks(seed, 40):
        left, right, info = section._factor_seven_by_n(a)
        assert is_product(left, right, a)
        vertices.append((k, info["vertices"]))
    assert all(k == found for k, found in vertices)
    assert len(handed["cyclic"]) == 30 and len(handed["fan"]) == 40
    for rays in handed["cyclic"] + handed["fan"]:
        for x in rays:
            assert all(isinstance(t, int) for t in x)
            assert gcd(*x) == 1 and min(x) >= 0
