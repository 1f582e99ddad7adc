"""The library's size budget: ``src/exactnmf/*.py`` stays at or below the
2,866 lines it has since polygons are validated in linear time, so code
only grows where other code goes."""

from pathlib import Path

import exactnmf

LINE_BUDGET = 2866


def test_source_within_line_budget():
    package = Path(exactnmf.__file__).resolve().parent
    lines = sum(len(path.read_text().splitlines()) for path in package.glob("*.py"))
    assert lines <= LINE_BUDGET, f"src/exactnmf has {lines} lines; the budget is {LINE_BUDGET}"
