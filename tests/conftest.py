import sys
from pathlib import Path

import pytest

# Make the sibling oracles and bundled modules importable regardless of invocation dir.
sys.path.insert(0, str(Path(__file__).parent))

from bundled import DATA, load_smb_level
from leveldiv import TileGrid


def filled(symbol, width, height):
    """A width x height grid holding `symbol` in every cell."""
    return TileGrid(tuple(symbol * width for _ in range(height)))


@pytest.fixture(scope="session")
def mario_1_1():
    return load_smb_level("mario-1-1")


@pytest.fixture(scope="session")
def smb_data_dir():
    return DATA / "smb"


@pytest.fixture(scope="session")
def tiny_patch_path():
    """The bundled 4x4 image patch, a minimal training sample."""
    return DATA / "tiny" / "patch-4x4.txt"

