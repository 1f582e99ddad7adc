#!/usr/bin/env python3
"""Benchmark of exactnmf: closed-loop workloads, end-to-end and per-layer
metrics.  Standard library only; run from the root of a checkout:

    python3 bench/run.py --workload heptagon --seed 1 --seconds 20 --trace 0

``--trace 0`` is the timed run: the library is imported unpatched and the
end-to-end metrics are measured.  ``--trace 1`` is the traced run: passes
over the timed run's inputs, each run once unpatched and once with every
public function wrapped in a span, giving the per-layer metrics.  Both print one
JSON object as the last line of standard output, and write their record
and (traced) spans under ``.bench_out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import nullcontext

import spans
from workloads import WORKLOADS, CheckFailed, entry_bits

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

TRACE_PASSES = 3
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
# An instance is one input, timed once in each pass over all inputs; its
# time is the fastest of them.  Other tenants of a shared host slow a CPU
# by up to 2x for seconds to minutes at a time, and often only one of the
# CPUs, so passes spread over the run and over the CPUs this process may
# use filter much of that out of the per-instance time.
CHUNK_METHODS = ("section", "section+cyclic", "identity", "single-column",
                 "segment", "zero", "strip-zeros", "transpose")


class SetupError(Exception):
    """The library cannot be imported from this checkout."""


def import_library():
    """Import exactnmf from this checkout's ``src``, afresh."""
    for name in [n for n in sys.modules if n == "exactnmf" or n.startswith("exactnmf.")]:
        del sys.modules[name]
    try:
        lib = importlib.import_module("exactnmf")
        importlib.import_module("exactnmf.serialize")
        importlib.import_module("exactnmf.generate")
    except ImportError as exc:
        raise SetupError(f"cannot import exactnmf from {SRC}: {exc}") from None
    where = os.path.dirname(os.path.abspath(lib.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise SetupError(f"exactnmf was imported from {where}, not from {SRC}")
    return lib


def _no_span(name):
    return nullcontext()


# -- host record --------------------------------------------------------------


def reference_loop_s() -> float:
    """Best of three timings of a fixed pure-Python loop.  Recorded to
    recognise a slowed host; never used to rescale a metric."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        best = min(best, time.perf_counter() - start)
    return best


def host_record() -> dict:
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg": list(os.getloadavg()),
        "ref_loop_s": reference_loop_s(),
    }


def host_flags(before: dict, after: dict) -> list:
    flags = []
    ratio = after["ref_loop_s"] / before["ref_loop_s"]
    if not 0.9 <= ratio <= 1.1:
        flags.append(f"reference loop moved by {ratio - 1:+.0%} during the run")
    cpus = before["affinity_cpus"] or before["nproc"] or 1
    if max(before["loadavg"][0], after["loadavg"][0]) > cpus:
        flags.append("load average above the CPU count")
    return flags


# -- one instance -----------------------------------------------------------


def run_instance(lib, wl, item, span, after_run=None, expect=None):
    """Time one instance, then check its output.  ``after_run`` is called
    between the two, outside the timing.  The check is the full gate, or,
    given ``expect``, the key of an earlier output of the same input that
    passed the full gate, a comparison of keys.  Returns (seconds, text,
    bits, key, error); an exception or a failed check sets ``error``, and
    ``text`` and ``bits`` come only from a full check."""
    start = time.perf_counter()
    try:
        out = wl.run(lib, item, span)
        error = None
    except Exception as exc:  # an instance failure is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if after_run is not None:
        after_run()
    if error is not None:
        return elapsed, None, 0, None, error
    try:
        if expect is not None:
            if wl.key(out) != expect:
                raise CheckFailed("output differs from the one that passed the full gate")
            return elapsed, None, 0, expect, None
        text, bits = wl.check(lib, item, out)
        return elapsed, text, bits, wl.key(out), None
    except Exception as exc:  # includes CheckFailed
        return elapsed, None, 0, None, f"{type(exc).__name__}: {exc}"


def input_count(wl, seconds) -> int:
    """Distinct inputs in a run: a fixed number for a run length, so that a
    parent and a change time the same inputs and the tail sits at the same
    rank.  A timed run makes about ``wl.passes`` passes over them in
    ``seconds`` on the reference host."""
    return max(2, math.ceil(seconds * wl.rate / wl.passes))


def setup(wl, seed, count):
    """Import the library and build ``count`` distinct inputs (a stored
    corpus rounds up to whole units)."""
    lib = import_library()
    return lib, wl.prepare(lib, seed, count)


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


# -- timed run --------------------------------------------------------------


def usable_cpus() -> list:
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def pin(cpus, turn):
    """Move this process, and only it, to the turn-th of ``cpus``."""
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[turn % len(cpus)]})


def timed_setup(wl, seed, count):
    gc.collect()
    start = time.perf_counter()
    result = setup(wl, seed, count)
    return time.perf_counter() - start, result


def timed_run(wl, seed, seconds):
    """Pass over all inputs until ``seconds`` of wall time (set-ups aside)
    have gone by; each input is one instance, timed at its fastest."""
    count = input_count(wl, seconds)
    cpus = usable_cpus()
    pin(cpus, 0)
    elapsed, (lib, items) = timed_setup(wl, seed, count)
    setup_times = [elapsed]
    best = [math.inf] * len(items)
    keys = [None] * len(items)  # set once an input's output passed in full
    errors, texts, bits = [], [], []
    timed = 0.0
    done = passes = 0
    start = time.perf_counter()
    while True:
        wall = time.perf_counter() - start - sum(setup_times[1:])
        if passes and wall >= seconds:
            break
        # The other set-ups run between passes, spread evenly over the
        # run, so that one slow stretch of the host does not hit all of
        # them; their results are dropped.
        while len(setup_times) < wl.setups and wall >= seconds * len(setup_times) / wl.setups:
            pin(cpus, len(setup_times))
            setup_times.append(timed_setup(wl, seed, count)[0])
        pin(cpus, passes)
        for k, item in enumerate(items):
            elapsed, text, out_bits, keys[k], error = run_instance(
                lib, wl, item, _no_span, expect=keys[k])
            timed += elapsed
            done += 1
            best[k] = min(best[k], elapsed)
            if error is not None:
                errors.append((passes, k, error))
            elif passes == 0:  # first pass: each distinct input once
                texts.append(text)
                bits.append(out_bits)
        passes += 1
    if cpus:
        os.sched_setaffinity(0, cpus)

    ordered = sorted(best)
    n = len(ordered)
    # 11th largest; below 2 * TAIL_BEYOND + 1 instances that is not above
    # the median, and the max is reported instead
    tail_index = n - TAIL_BEYOND - 1 if n > 2 * TAIL_BEYOND else n - 1
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_per_s": (n / sum(ordered), "1/s"),
        "latency_p50_ms": (statistics.median(ordered) * 1e3, "ms"),
        "latency_tail_ms": (ordered[tail_index] * 1e3, "ms"),
        "cert_bytes": (sum(len(t.encode()) for t in texts), "bytes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "setup_runs_s": setup_times,
        "instances": n,
        "passes": passes,
        "cpus": cpus,
        "timings": done,
        "timed_s": timed,
        "throughput_all_timings_per_s": done / timed,
        "tail_percentile": 100 * (tail_index + 1) / n,
        "tail_beyond": n - tail_index - 1,
        "failed_ratio": len(errors) / done,
        "max_entry_bits": max(bits, default=0),
        "inputs_digest": digest(repr(item) for item in items),
        "outputs_digest": digest(texts),
        "errors": errors[:5],
    }
    return done, len(errors), metrics, detail


# -- traced run -------------------------------------------------------------


def traced_run(wl, seed, seconds, spans_path):
    """TRACE_PASSES passes over the timed run's inputs, each input run once
    unpatched and once with spans; spans and counts are kept from every
    pass, and the overhead compares each side's fastest timings."""
    lib, instances = setup(wl, seed, input_count(wl, seconds))
    cpus = usable_cpus()
    tracer = spans.Tracer(lib)
    traced_s = 0.0
    fastest = {False: [math.inf] * len(instances), True: [math.inf] * len(instances)}
    errors, texts, bits = [], [], []
    for p in range(TRACE_PASSES):
        pin(cpus, p)
        for i, item in enumerate(instances):
            # alternate which side goes first, so drift and warm-up cancel
            for traced in (i % 2 == 1, i % 2 == 0):
                if traced:
                    tracer.instance = i
                    tracer.install()
                    elapsed, text, out_bits, _, error = run_instance(
                        lib, wl, item, tracer.span, after_run=tracer.restore)
                    traced_s += elapsed
                    if text is not None and p == 0:
                        texts.append(text)
                        bits.append(out_bits)
                else:
                    elapsed, _, _, _, error = run_instance(lib, wl, item, _no_span)
                fastest[traced][i] = min(fastest[traced][i], elapsed)
                if error is not None:
                    errors.append((p, i, "traced" if traced else "untraced", error))
    if cpus:
        os.sched_setaffinity(0, cpus)
    count = len(instances)
    failed = len({e[1] for e in errors})
    metrics = layer_metrics(tracer, traced_s, texts if wl.serializes else [])
    metrics["trace.overhead_ratio"] = (sum(fastest[True]) / sum(fastest[False]) - 1, "ratio")
    metrics["max_entry_bits"] = (max(bits, default=0), "bits")
    metrics["failed_ratio"] = (failed / count, "ratio")
    tracer.write(spans_path)
    detail = {
        "instances": count,
        "passes": TRACE_PASSES,
        "traced_s": traced_s,
        "fastest_untraced_s": sum(fastest[False]),
        "fastest_traced_s": sum(fastest[True]),
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "errors": errors[:5],
    }
    return count, failed, metrics, detail


def layer_metrics(tracer, traced_s, texts):
    summary = spans.summarize(tracer.spans)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def get(name, key):
        return summary.get(name, zero)[key]

    m = {}
    for name, key in (
        ("linalg.matmul", "calls"), ("linalg.matmul", "s"),
        ("linalg.eq", "calls"),
        ("linalg.rank", "calls"), ("linalg.rank", "s"),
        ("linalg.solve", "calls"), ("linalg.solve", "s"),
        ("driver.nn_factor", "self_s"),
        ("driver.verify_factorization", "calls"), ("driver.verify_factorization", "s"),
        ("section.section_polygon", "calls"), ("section.section_polygon", "s"),
        ("section.convex_coefficients", "calls"), ("section.convex_coefficients", "s"),
        ("section.factor_seven_by_n", "self_s"),
        ("section.factor_low_rank", "calls"), ("section.factor_low_rank", "s"),
        ("cyclic.factor_cyclic", "self_s"),
        ("cyclic.scale_to_canonical", "s"),
        ("cyclic.detect_cyclic_labeling", "s"),
        ("canonical.factor_canonical", "self_s"),
        ("canonical.direct_factor", "s"),
        ("canonical.step", "calls"),
        ("canonical.is_admissible", "calls"), ("canonical.is_admissible", "s"),
        ("polygon.polygon_from_points", "s"),
        ("polygon.slack_matrix", "calls"), ("polygon.slack_matrix", "s"),
        ("polygon.build_extension", "self_s"),
        ("polygon.verify_extension", "self_s"),
        ("serialize.dump", "s"),
        ("serialize.parse", "s"),
        ("estimator.fit_transform", "self_s"),
        ("validation.as_matrix", "calls"), ("validation.as_matrix", "s"),
    ):
        m[f"{name}.{key}"] = (get(name, key), "count" if key == "calls" else "s")

    outputs = tracer.outputs
    methods = Counter()
    chunks = 0
    for fact in outputs["driver.nn_factor"]:
        for record in fact.trace:
            methods[record["method"]] += 1
            chunks += "rows" in record
    for method in CHUNK_METHODS:
        m[f"driver.chunks.{method.replace('+', '_')}"] = (methods[method], "count")
    ranks_in_factor = spans.count_within(tracer.spans, "linalg.rank", "driver.nn_factor")
    m["linalg.rank_per_chunk"] = (ranks_in_factor / chunks if chunks else 0.0, "ratio")

    section_out = outputs["section.factor_seven_by_n"] + outputs["section.factor_low_rank"]
    m["section.out.bits_max"] = (max((entry_bits(l, r) for l, r, _ in section_out), default=0), "bits")
    m["cyclic.out.bits_max"] = (
        max((entry_bits(c.left, c.right) for c in outputs["cyclic.factor_cyclic"]), default=0), "bits")
    factors = get("canonical.factor_canonical", "calls")
    m["canonical.admissible_per_factor"] = (
        get("canonical.is_admissible", "calls") / factors if factors else 0.0, "ratio")
    m["canonical.search_steps"] = (
        sum(c.steps_taken for c in outputs["canonical.factor_canonical"]), "count")
    m["serialize.bytes"] = (sum(len(t.encode()) for t in texts), "bytes")

    verify_s = get("driver.verify_factorization", "s") + get("polygon.verify_extension", "s")
    # self times add up to the root spans' durations, so coverage is the
    # share of the traced instance time that lies inside some span
    in_spans = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    m["verify.share"] = (verify_s / traced_s, "ratio")
    m["trace.coverage"] = (in_spans / traced_s, "ratio")
    return m


# -- main -------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    wl = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    before = host_record()
    try:
        if args.trace:
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
            attempted, failed, metrics, detail = traced_run(wl, args.seed, args.seconds, spans_path)
        else:
            attempted, failed, metrics, detail = timed_run(wl, args.seed, args.seconds)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    after = host_record()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host_before": before,
        "host_after": after,
        "host_flags": host_flags(before, after),
        **detail,
    }
    path = os.path.join(OUT_DIR, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    print(json.dumps({"record": record}, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
