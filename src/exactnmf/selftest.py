"""Seeded end-to-end checks, runnable from the CLI.

Each check runs one public pipeline on random instances: factor a
polygon's slack matrix, build and verify a lifted polygon description,
and round-trip a factorization certificate through JSON text.  The
per-module properties live in the test suite.  Every check draws from a
child of one splitmix64 stream, so identical (seed, iterations)
arguments print identical output.  The factor and extend checks run one
case per 20 requested iterations, the round trip one per 5.
"""

from __future__ import annotations

import json
from typing import Callable, List, Tuple

from .driver import nn_factor, verify_factorization
from .generate import random_convex_polygon, random_nonnegative_matrix
from .polygon import build_extension, slack_matrix, verify_extension
from .rng import SplitMix64
from .serialize import certificate_from_jsonable, certificate_to_jsonable, dumps


def check_factor(rng, iterations):
    runs = max(1, iterations // 20)
    for _ in range(runs):
        s = slack_matrix(random_convex_polygon(rng, rng.below(8) + 7)).matrix
        fact = nn_factor(s)
        assert verify_factorization(s, fact).ok
        assert fact.inner_dim <= fact.bound
    return runs


def check_extend(rng, iterations):
    runs = max(1, iterations // 20)
    for _ in range(runs):
        n = rng.below(8) + 5
        poly = random_convex_polygon(rng, n)
        ef = build_extension(poly)
        assert verify_extension(poly, ef).ok
        if n >= 7:
            assert ef.k < n
    return runs


def check_certificate_json(rng, iterations):
    runs = max(1, iterations // 5)
    for _ in range(runs):
        # at most 3 rows keeps the rank within nn_factor's scope
        m = random_nonnegative_matrix(rng, rng.below(3) + 1, rng.below(5) + 1, 97)
        text = dumps(certificate_to_jsonable(nn_factor(m)))
        back = certificate_from_jsonable(json.loads(text))
        assert dumps(certificate_to_jsonable(back)) == text
        assert verify_factorization(m, back).ok
    return runs


CHECKS: List[Tuple[str, Callable]] = [
    ("factor", check_factor),
    ("extend", check_extend),
    ("certificate-json", check_certificate_json),
]


def run_selftest(seed: int = 0, iterations: int = 200, emit=print) -> bool:
    """Run every seeded check; prints one line per check and a summary.

    Output is a pure function of (seed, iterations).
    """
    root = SplitMix64(seed)
    streams = [SplitMix64(root.next_u64()) for _ in CHECKS]
    failures = 0
    for (name, fn), stream in zip(CHECKS, streams):
        try:
            cases = fn(stream, iterations)
            emit(f"{name}: pass ({cases} cases)")
        except AssertionError as exc:
            failures += 1
            emit(f"{name}: FAIL ({exc})")
        except Exception as exc:  # noqa: BLE001 - selftest reports, never crashes
            failures += 1
            emit(f"{name}: ERROR ({type(exc).__name__}: {exc})")
    emit(
        f"selftest: {len(CHECKS) - failures}/{len(CHECKS)} checks passed "
        f"(seed={seed}, iterations={iterations})"
    )
    return failures == 0
