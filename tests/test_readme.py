"""The README's Library example runs as written against the package."""

import re
from pathlib import Path

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
