"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list:
    return re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)


def test_readme_python_block_runs():
    (block,) = python_blocks(README.read_text())     # exactly one
    exec(compile(block, str(README), "exec"), {})
