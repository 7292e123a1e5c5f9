"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    # the python block under "Library entry points", so the example
    # cannot name a function the package no longer has
    section = README.read_text().split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "no python block under Library entry points"
    exec(compile(block.group(1), f"{README}:library example", "exec"), {})
