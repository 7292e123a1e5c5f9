"""The README's library example runs as written, and its CLI synopsis
lists the options the parser takes."""

import argparse
import re
from pathlib import Path

from dimatch import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    # the python block under "Library entry points", so the example
    # cannot name a function the package no longer has
    section = README.read_text().split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "no python block under Library entry points"
    exec(compile(block.group(1), f"{README}:library example", "exec"), {})


def test_readme_cli_synopsis_matches_the_parser():
    # the code block under "## CLI" names, for each mode, whether it takes
    # FILE and which options: the same as the mode's subparser
    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S)
    assert block is not None, "no code block under CLI"
    listed = {}
    for line in block.group(1).splitlines():
        words = [w.strip("[]") for w in line.split()]
        assert words[0] == "dimatch", line
        listed[words[1]] = ("FILE" in words,
                            {w for w in words[2:] if w.startswith("--")})
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    parsed = {mode: (any(a.dest == "path" for a in p._actions),
                     {o for a in p._actions for o in a.option_strings
                      if o not in ("-h", "--help")})
              for mode, p in sub.choices.items()}
    assert listed == parsed
