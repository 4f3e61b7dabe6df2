"""The bundled levels the tests load, and their level types.

The Super Mario Bros. corpus ships one text file per level under the package's
data/smb directory; level 1-1 doubles as the default training sample. The data
directory also holds a 4x4 image patch, data/tiny/patch-4x4.txt, for
exercising generation from tiny samples.
"""

from pathlib import Path

import leveldiv
from leveldiv import LevelSet, TileGrid, load_level

DATA = Path(leveldiv.__file__).parent / "data"

# Level style per bundled SMB level. The corpus contains only these three
# types; castle and underwater levels are not part of it.
SMB_LEVEL_TYPES = {
    "mario-1-1": "overworld",
    "mario-1-2": "underground",
    "mario-1-3": "athletic",
    "mario-2-1": "overworld",
    "mario-3-1": "overworld",
    "mario-3-3": "athletic",
    "mario-4-1": "overworld",
    "mario-4-2": "underground",
    "mario-5-1": "overworld",
    "mario-5-3": "athletic",
    "mario-6-1": "overworld",
    "mario-6-2": "overworld",
    "mario-6-3": "athletic",
    "mario-7-1": "overworld",
    "mario-8-1": "overworld",
}


def smb_level_path(name: str) -> Path:
    """Path of one bundled SMB level, e.g. smb_level_path("mario-1-1")."""
    if name not in SMB_LEVEL_TYPES:
        raise KeyError(f"unknown bundled level {name!r}")
    return DATA / "smb" / f"{name}.txt"


def load_smb_level(name: str) -> TileGrid:
    return load_level(smb_level_path(name))


def load_smb_corpus() -> LevelSet:
    """All bundled SMB levels as one set, in sorted name order."""
    return LevelSet.from_grids((name, load_smb_level(name)) for name in sorted(SMB_LEVEL_TYPES))
