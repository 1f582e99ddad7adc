"""The shell scripts under ``ci/`` that the workflow calls, run here with
``exactnmf`` and ``python`` on PATH as shims for this checkout's package."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHIM = '#!/bin/sh\nPYTHONPATH="{src}" exec "{python}" {args}"$@"\n'


def shim_path(tmp_path):
    """A PATH whose ``exactnmf`` and ``python`` run this interpreter on src/."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    for name, args in (("exactnmf", "-m exactnmf "), ("python", "")):
        shim = bin_dir / name
        shim.write_text(SHIM.format(src=ROOT / "src", python=sys.executable, args=args))
        shim.chmod(0o755)
    return os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")])


def run_script(tmp_path, name):
    runner_temp = tmp_path / "runner"
    runner_temp.mkdir()
    env = dict(os.environ, PATH=shim_path(tmp_path), RUNNER_TEMP=str(runner_temp))
    done = subprocess.run(["bash", str(ROOT / "ci" / name)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "Traceback" not in done.stdout + done.stderr
    return done.stdout


def test_polygon_script(tmp_path):
    out = run_script(tmp_path, "polygon.sh")
    assert "50-gon described with" in out
    for message in ("coincide", "winds 2 times", "shape mismatch"):
        assert message in out


def test_verify_script(tmp_path):
    out = run_script(tmp_path, "verify.sh")
    assert out.count("verification: all checks passed") == 2
    assert "right factor has negative entry" in out


def test_unreached_lines_script(tmp_path):
    """``ci/unreached.py`` over ``tests/test_validation.py`` alone: it names
    ``as_point``'s refusal, which that file never calls, and not
    ``as_matrix``'s empty-input refusal, which it does."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "ci" / "unreached.py"), str(ROOT / "tests" / "test_validation.py"),
         "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    source = (ROOT / "src" / "exactnmf" / "validation.py").read_text().splitlines()
    line_of = {text.strip(): n for n, text in enumerate(source, 1)}
    unreached = set(done.stdout.splitlines())
    assert f"src/exactnmf/validation.py:{line_of['pair = list(value)']}" in unreached
    empty = line_of['raise DimensionError("matrix input is empty")']
    assert f"src/exactnmf/validation.py:{empty}" not in unreached
    assert done.stdout.splitlines()[-1].endswith("executable lines unreached")
