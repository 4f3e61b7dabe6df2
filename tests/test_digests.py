"""Seeded output pinned by digest.

Each command line of `digest_cases.CASES` runs through `cli.dispatch` with its
outputs written to files, and the SHA-256 of every output must equal the one
recorded in `digests.json`. A fixed seed gives byte-identical output, so a
change that alters any of these bytes fails here. The digests depend on libm's
`log`, so they hold on the platform the file records; a mismatch elsewhere is a
finding to report, not a reason to regenerate. `python tests/regen_digests.py
--check` runs the same check without pytest. A change that means to alter
seeded output rewrites the file with `python tests/regen_digests.py` and says
so.
"""

import pytest

from digest_cases import CASES, output_digests, platform_record, recorded


def test_digests_cover_every_case():
    assert sorted(recorded()["digests"]) == sorted(name for name, _, _ in CASES)


@pytest.mark.parametrize("name, argv, flags", CASES, ids=[case[0] for case in CASES])
def test_seeded_output_digest(name, argv, flags, tmp_path):
    pinned = recorded()
    assert output_digests(argv, flags, tmp_path) == pinned["digests"][name], (
        f"output of {name} changed; digests recorded on {pinned['platform']}, "
        f"running on {platform_record()}"
    )
