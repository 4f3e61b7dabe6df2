"""Rewrite tests/digests.json from this checkout's seeded outputs, or check them.

Run from anywhere as `python tests/regen_digests.py`. Do so only in a change
that means to alter seeded output, and say which digests moved. With
`--check`, nothing is written: each digest that differs from the recorded one
is named, and the exit status is 1 if any did. It needs no pytest, so any
interpreter the package supports can run it.
"""

import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from digest_cases import CASES, DIGESTS, output_digests, platform_record, recorded  # noqa: E402


def main(argv):
    if argv not in ([], ["--check"]):
        print("usage: regen_digests.py [--check]", file=sys.stderr)
        return 2
    digests = {}
    for name, case_argv, flags in CASES:
        with tempfile.TemporaryDirectory() as directory:
            with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
                digests[name] = output_digests(case_argv, flags, directory)
    if argv:
        pinned = recorded()
        moved = [name for name in sorted(digests.keys() | pinned["digests"].keys())
                 if digests.get(name) != pinned["digests"].get(name)]
        for name in moved:
            print(f"moved: {name}")
        print(f"{len(digests) - len(moved)} of {len(digests)} digests match, on "
              f"{platform_record()}; recorded on {pinned['platform']}")
        return 1 if moved else 0
    text = json.dumps({"platform": platform_record(), "digests": digests}, indent=1)
    DIGESTS.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
