"""The seeded command lines whose outputs are pinned in digests.json.

Shared by `test_digests.py` and `regen_digests.py`, and free of pytest, so any
interpreter that runs the package can check or rewrite the digests.
"""

import hashlib
import json
import platform
from pathlib import Path

from bundled import DATA, smb_level_path
from leveldiv.cli import dispatch

DIGESTS = Path(__file__).with_name("digests.json")
SMB = sorted(str(path) for path in (DATA / "smb").glob("*.txt"))


def _level(name):
    return str(smb_level_path(name))


def _cases():
    """(case id, argv, output flags): each flag is given a file of its own."""
    cases = []
    for dims in ("4x4", "2x2"):
        for mutation in ("conv", "flip"):
            for seed in range(5):
                argv = ["evolve", _level("mario-1-1"), "--filter", dims, "--mutation", mutation,
                        "--budget", "2000", "--seed", str(seed)]
                cases.append((f"evolve-{mutation}-{dims}-seed{seed}", argv, ("--out", "--trace")))
        cases += [
            (f"patterns-{dims}", ["patterns", *SMB, "--filter", dims], ("--out",)),
            (f"analyze-{dims}",
             ["analyze", _level("mario-1-1"), _level("mario-4-2"), "--filter", dims],
             ("--out", "--contributions")),
            (f"cluster-{dims}", ["cluster", *SMB, "--filter", dims],
             ("--out", "--dendrogram-out")),
            (f"compare-{dims}",
             ["compare", str(DATA / "smb"), str(DATA / "tiny"), "--training", _level("mario-1-1"),
              "--filters", dims],
             ("--out",)),
            (f"snippets-{dims}",
             ["snippets", _level("mario-1-1"), _level("mario-4-2"), "--filter", dims],
             ("--out",)),
        ]
    return cases


CASES = _cases()


def platform_record():
    return {"system": platform.system(), "machine": platform.machine(),
            "python": platform.python_version()}


def output_digests(argv, flags, directory):
    """Run one command line and return the SHA-256 of each output, by flag."""
    paths = {flag: Path(directory) / flag.lstrip("-") for flag in flags}
    code = dispatch([*argv, *(arg for flag, path in paths.items() for arg in (flag, str(path)))])
    assert code == 0, f"exit code {code}"
    return {flag: hashlib.sha256(path.read_bytes()).hexdigest() for flag, path in paths.items()}


def recorded():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))
