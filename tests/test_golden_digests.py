"""Byte-identity guard: certificate and formulation JSON for a fixed
seeded corpus must not change.

Each group of outputs is serialised with ``serialize.dumps`` and hashed;
the sha256 digests below were recorded with the all-Fraction linear
algebra, before the integer kernel replaced it.  A refactor that changes
any certificate byte fails here.
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
    "heptagons": "0481f9178aef1798aa13fde134c5ffcc1ad92453924761261fc931324671371c",
    "low_rank": "a196392ac8ba193121334b4dbac28c241644b3f92168ad7b9c2f9c47aaa72ecd",
    "formulations": "daa294e1e60c26be82362febd32746714335b647bcb5d2bb646f369f8ca3ee0c",
}


# Recorded with the Fraction cyclic core, before the integer one replaced
# it.  The search stops after 0 to 6 steps on these heptagons, where the
# first 20 of seed 1 stop after at most 5.
DEEP_HEPTAGONS_DIGEST = "4bc87da79098a02051c14c4842ed5af2abc0cc3cf823cab78c5b64188e6c5848"


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
