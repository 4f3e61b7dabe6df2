"""Seeded output pinned by digest.

Each command line below runs through `cli.dispatch` with its outputs written to
files, and the SHA-256 of every output must equal the one recorded in
`digests.json`. A fixed seed gives byte-identical output, so a change that
alters any of these bytes fails here. The digests depend on libm's `log`, so
they hold on the platform the file records; a mismatch elsewhere is a finding
to report, not a reason to regenerate. A change that means to alter seeded
output rewrites the file with `python tests/regen_digests.py` and says so.
"""

import hashlib
import json
import platform
from pathlib import Path

import pytest

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


def _recorded():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_digests_cover_every_case():
    assert sorted(_recorded()["digests"]) == sorted(name for name, _, _ in CASES)


@pytest.mark.parametrize("name, argv, flags", CASES, ids=[case[0] for case in CASES])
def test_seeded_output_digest(name, argv, flags, tmp_path):
    recorded = _recorded()
    assert output_digests(argv, flags, tmp_path) == recorded["digests"][name], (
        f"output of {name} changed; digests recorded on {recorded['platform']}, "
        f"running on {platform_record()}"
    )
