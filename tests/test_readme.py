"""The README's Library example runs as written against the package."""

import argparse
import re
from pathlib import Path

from leveldiv.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # the evolved 30x14 level, then its fitness
    assert len(lines) == 15
    assert all(len(row) == 30 for row in lines[:14])
    assert float(lines[14]) <= 0.0


def test_readme_command_line_flags_exist():
    # Both ways: every flag the section names is accepted, and every accepted
    # long flag but --help is named. The install section's pip flags lie
    # outside this section.
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = set(parser._option_string_actions)
    for sub in commands.choices.values():
        accepted.update(sub._option_string_actions)
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    assert documented, "no flags found in the Command line section"
    assert sorted(documented - accepted) == []
    long_flags = {flag for flag in accepted if flag.startswith("--")} - {"--help"}
    assert sorted(long_flags - documented) == []
