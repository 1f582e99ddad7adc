"""The README's library example runs as written: its ``python`` block is
extracted and executed, so its exact ``@`` and ``==`` claims stay true."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1, "the README holds one python example"
    exec(compile(blocks[0], "README.md", "exec"), {})
