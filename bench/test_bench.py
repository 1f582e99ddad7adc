"""Self-test of the benchmark: every workload at a tiny size.

Run from the root of a checkout with ``python3 -m pytest bench``.  For
every workload the command accepts, it checks that every metric named in
BENCHMARK.json is emitted, that no instance fails, and that the count
metrics repeat exactly for the same seed.  It also checks that the
benchmark refuses to run without the library's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

from workloads import WORKLOADS as WORKLOADS_BY_NAME

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SECONDS = "0.5"
SEED = "3"
EXACT_UNITS = {"count", "bits", "bytes"}

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
# every workload the command accepts, including those BENCHMARK.json leaves out
WORKLOADS = sorted(WORKLOADS_BY_NAME)


def bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", SEED, "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_emitted_no_failures_counts_repeat(workload, trace):
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    first, second = result(workload, trace), result(workload, trace)
    for out in (first, second):
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] is True
        assert out["failed"] == 0 and out["attempted"] >= 1
        assert {name: m["unit"] for name, m in out["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec
        }
    if trace:
        # a timed run makes as many passes as fit in its time; a traced
        # run takes each input once
        assert first["metrics"]["failed_ratio"]["value"] == 0
        assert first["attempted"] == second["attempted"]
    for m in spec:
        if m["unit"] in EXACT_UNITS:
            name = m["name"]
            assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_to_run_without_sources():
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_out")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(WORKLOADS[0], 0, cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
