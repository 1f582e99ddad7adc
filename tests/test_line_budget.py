"""The library's size budget: ``src/exactnmf/*.py`` stays at or below the
2,861 lines it has since the factoring cores take bare integers, so code
only grows where other code goes."""

from pathlib import Path

import exactnmf

LINE_BUDGET = 2861


def test_source_within_line_budget():
    package = Path(exactnmf.__file__).resolve().parent
    lines = sum(len(path.read_text().splitlines()) for path in package.glob("*.py"))
    assert lines <= LINE_BUDGET, f"src/exactnmf has {lines} lines; the budget is {LINE_BUDGET}"
