import sys
import weakref
from pathlib import Path

import pytest

# Make the sibling oracles and bundled modules importable regardless of invocation dir.
sys.path.insert(0, str(Path(__file__).parent))

from bundled import DATA, load_smb_level
from leveldiv import TileGrid, analysis, evolve, patterns


# Tiles of 1-, 2- and 4-byte string kinds: a row or key of them mixes kinds.
WIDE_TILES = "a-é█🍄"


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


@pytest.fixture
def counts_alive(monkeypatch):
    """Wrap `patterns.extract_distribution` so each call first records how many
    of the count maps it returned earlier are still alive."""
    refs, alive = [], []
    extract = patterns.extract_distribution

    def tracked(grid, dims):
        alive.append(sum(ref() is not None for ref in refs))
        dist = extract(grid, dims)
        refs.append(weakref.ref(dist.counts))
        return dist

    monkeypatch.setattr(patterns, "extract_distribution", tracked)
    return alive


@pytest.fixture
def sides_built(monkeypatch):
    """Wrap the training side that `evolve` and `analysis` build, so each one
    built records its (filter dims, candidate window total)."""
    built = []

    class Side(evolve._Side):
        def __init__(self, training, config, total):
            built.append((config.dims, total))
            super().__init__(training, config, total)

    monkeypatch.setattr(evolve, "_Side", Side)
    monkeypatch.setattr(analysis, "_Side", Side)
    return built
