"""The README agrees with the package: its Library example, flags, CSV headers,
dendrogram JSON schema and internal helpers."""

import argparse
import importlib
import json
import re
from pathlib import Path

import leveldiv
from leveldiv.cli import build_parser, dispatch

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


def _expand(header, names):
    """A documented header with its `,...` part written out once per name."""
    if not header.endswith(",..."):
        return header
    head, repeated = header.removesuffix(",...").split(",", 1)
    return ",".join([head, *(re.sub(r"<\w+>", name, repeated) for name in names)])


def test_readme_csv_headers_are_written(capsys, tmp_path):
    # The list after "All tabular output is CSV", one bullet per CSV output.
    text = README.read_text(encoding="utf-8").split("\nAll tabular output is CSV", 1)[1]
    bullets = text.split("\n\n")[1].splitlines()
    documented = {}
    for bullet in bullets:
        label, header = re.fullmatch(r"- `([^`]+)`[^:]*: `([^`]+)`", bullet).groups()
        documented[label] = header
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("ab\nba\n")
    b.write_text("aa\nab\n")
    gen = tmp_path / "gen"
    gen.mkdir()
    (gen / "g.txt").write_text("ab\nbb\n")
    out = str(tmp_path / "out.csv")
    levels = [str(a), str(b), "--filter", "1x1"]
    # (label, command line writing that CSV to `out`, names its header repeats over)
    runs = [
        ("patterns", ["patterns", *levels, "--out", out], []),
        ("analyze --contributions", ["analyze", *levels, "--contributions", out], []),
        ("evolve --trace", ["evolve", *levels, "--budget", "3", "--width", "2", "--seed", "0",
                            "--trace", out], []),
        ("cluster", ["cluster", *levels, "--out", out], ["a", "b"]),
        ("cluster", ["cluster", *levels, "--cut", "2", "--matrix-out", out], ["a", "b"]),
        ("cluster --cut", ["cluster", *levels, "--cut", "2", "--out", out], []),
        ("compare", ["compare", str(gen), "--training", str(a), "--filters", "1x1",
                     "--weights", "0.5", "--weights", "1", "--out", out], ["1x1_0.5", "1x1_1"]),
        ("snippets", ["snippets", *levels, "--width", "1", "--out", out], []),
    ]
    assert sorted(documented) == sorted({label for label, _, _ in runs})
    for label, argv, names in runs:
        Path(out).unlink(missing_ok=True)
        assert dispatch(argv) == 0, argv
        first = Path(out).read_text(encoding="utf-8").split("\n", 1)[0]
        assert first == _expand(documented[label], names), label
    capsys.readouterr()


def _documented_keys(text, lead):
    """The backquoted names of the sentence `lead` opens, up to its colon;
    line breaks read as spaces."""
    listed = re.search(re.escape(lead) + r"(.*?):", " ".join(text.split())).group(1)
    return re.findall(r"`(\w+)`", listed)


def test_readme_dendrogram_schema_is_written(capsys, tmp_path):
    text = README.read_text(encoding="utf-8")
    a, b, c = (tmp_path / f"{name}.txt" for name in "abc")
    a.write_text("ab\nba\n")
    b.write_text("aa\nab\n")
    c.write_text("bb\nbb\n")
    out = tmp_path / "tree.json"
    assert dispatch(["cluster", str(a), str(b), str(c), "--filter", "1x1",
                     "--dendrogram-out", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text(encoding="utf-8"))
    assert list(data) == _documented_keys(text, "The `--dendrogram-out` JSON has the keys")
    for merge in data["merges"]:
        assert list(merge) == _documented_keys(text, "Each entry of `merges` has the keys")
    assert [merge["id"] for merge in data["merges"]] == [3, 4]


def test_readme_internal_helpers_stay_internal():
    text = README.read_text(encoding="utf-8")
    listed = re.search(r"Internal helpers such as(.*?)stay in their modules", text, re.DOTALL)
    helpers = re.findall(r"`(\w+)\.(\w+)`", listed.group(1))
    assert helpers
    for module, name in helpers:
        assert hasattr(importlib.import_module(f"leveldiv.{module}"), name), (module, name)
        assert name not in leveldiv.__all__, name
