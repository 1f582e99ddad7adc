"""Byte-identity guard: certificate and formulation JSON for a fixed
seeded corpus must not change.

Each group of outputs is serialised with ``serialize.dumps`` and hashed.
The sha256 digests below were recorded when certificates became compact
(each chunk's left columns primitive integer vectors, unused section
vertices dropped).  Before they were recorded, every certificate of the
four groups was checked to equal the one the previous code wrote, passed
through the Fraction helper ``conftest.primitive_columns`` and with its
unused vertices dropped.  A refactor that changes any certificate byte
fails here.
"""

import hashlib
from fractions import Fraction

from exactnmf.driver import nn_factor
from exactnmf.generate import random_convex_polygon
from exactnmf.linalg import Matrix
from exactnmf.polygon import build_extension, slack_matrix
from exactnmf.rng import SplitMix64
from exactnmf.serialize import certificate_to_jsonable, dumps, formulation_to_jsonable

DIGESTS = {
    "heptagons": "44daefd92144748df3ccc6ac257276b7995b983c7bc0e8a260486acceabd5c45",
    "low_rank": "25670826a5b4796e1b0174ce404f6ebfbe733f98e6c72d23ecc54d4597455f60",
    "formulations": "273eab45db1dd7b7b425ee6e0338a405854773ca315f094163b547f6c8e58884",
}


# Recorded, and checked, with the digests above.  The search stops after 0
# to 6 steps on these heptagons, where the first 20 of seed 1 stop after
# at most 5.
DEEP_HEPTAGONS_DIGEST = "5b36aa95b1840216b29e54fe66e328769c8175c79a2dd8e0030199e163f9e6e8"


def _digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
    return h.hexdigest()


def _certificate_text(matrix):
    return dumps(certificate_to_jsonable(nn_factor(matrix)))


def heptagon_texts():
    """Certificates of the first 20 heptagon slack matrices of SplitMix64(1)."""
    rng = SplitMix64(1)
    return [
        _certificate_text(slack_matrix(random_convex_polygon(rng, 7)).matrix)
        for _ in range(20)
    ]


def deep_heptagon_texts():
    """Certificates of the first 300 heptagon slack matrices of
    SplitMix64(7919), the benchmark's held-out seed."""
    rng = SplitMix64(7919)
    return [
        _certificate_text(slack_matrix(random_convex_polygon(rng, 7)).matrix)
        for _ in range(300)
    ]


def low_rank_product(rng, inner):
    """W @ H with nonnegative W (m x inner) and H (inner x n), one zero row
    in W and one zero column in H.  Sides are 2..14, or 9..14 when inner
    is 3, so that rank-3 products reach the section path."""
    low = 9 if inner == 3 else 2
    m, n = low + rng.below(15 - low), low + rng.below(15 - low)
    w = [[rng.fraction(16) for _ in range(inner)] for _ in range(m)]
    h = [[rng.fraction(16) for _ in range(n)] for _ in range(inner)]
    w[rng.below(m)] = [Fraction(0)] * inner
    zero_col = rng.below(n)
    for row in h:
        row[zero_col] = Fraction(0)
    return Matrix(w) @ Matrix(h)


def low_rank_texts():
    """Certificates of 30 products W @ H of inner dimension 1, 2, 3, ..."""
    rng = SplitMix64(2)
    return [_certificate_text(low_rank_product(rng, 1 + i % 3)) for i in range(30)]


def formulation_texts():
    """Lifted descriptions of one random n-gon for each n = 7..12."""
    return [
        dumps(formulation_to_jsonable(build_extension(random_convex_polygon(SplitMix64(n), n))))
        for n in range(7, 13)
    ]


def test_heptagon_certificates_unchanged():
    assert _digest(heptagon_texts()) == DIGESTS["heptagons"]


def test_low_rank_certificates_unchanged():
    assert _digest(low_rank_texts()) == DIGESTS["low_rank"]


def test_formulations_unchanged():
    assert _digest(formulation_texts()) == DIGESTS["formulations"]


def test_deep_search_heptagon_certificates_unchanged():
    assert _digest(deep_heptagon_texts()) == DEEP_HEPTAGONS_DIGEST
