"""Rewrite tests/digests.json from this checkout's seeded outputs.

Run from anywhere as `python tests/regen_digests.py`. Do so only in a change
that means to alter seeded output, and say which digests moved.
"""

import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from test_digests import CASES, DIGESTS, output_digests, platform_record  # noqa: E402


def main():
    digests = {}
    for name, argv, flags in CASES:
        with tempfile.TemporaryDirectory() as directory:
            with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
                digests[name] = output_digests(argv, flags, directory)
    text = json.dumps({"platform": platform_record(), "digests": digests}, indent=1)
    DIGESTS.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS}")


if __name__ == "__main__":
    main()
