"""Print the executable lines of ``src/exactnmf`` that a pytest run never reaches.

Usage, from the repository root:

    python ci/unreached.py [pytest arguments]

With no arguments it runs the tier-1 suite (``tests``).  pytest runs in
this process under a stdlib line tracer: ``sys.settrace`` for the main
thread and ``threading.settrace`` for the threads the tests start.  The
executable lines of a module are the line numbers of its compiled code
objects.  The report is one ``path:line`` per line that never ran, in file
and line order, and a closing count.

CLI subprocesses (``subprocess.run([sys.executable, "-m", "exactnmf", ...])``)
are not traced, so a line that only they run is reported as unreached.

Tracing makes the suite about three times slower, so tier-1 does not run
this; the workflow does.  The exit status is pytest's: a failing test
fails the run, an unreached line does not.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "exactnmf"


def executable_lines(path: Path):
    """The line numbers that the compiled code of ``path`` can run."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def main(argv) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE) + "/"
    reached = set()

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(list(argv) or [str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines):
            if (str(path), line) not in reached:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}")
    print(f"{missed} of {total} executable lines unreached")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
