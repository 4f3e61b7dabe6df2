import sys
from pathlib import Path

import pytest

# Make the sibling oracles module importable regardless of invocation dir.
sys.path.insert(0, str(Path(__file__).parent))

from leveldiv import TileGrid, load_smb_level


def filled(symbol, width, height):
    """A width x height grid holding `symbol` in every cell."""
    return TileGrid(tuple(symbol * width for _ in range(height)))


@pytest.fixture(scope="session")
def mario_1_1():
    return load_smb_level("mario-1-1")


@pytest.fixture(scope="session")
def smb_data_dir():
    import leveldiv.corpus as corpus

    return Path(corpus.__file__).parent / "data" / "smb"
