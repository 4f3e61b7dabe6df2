import concurrent.futures
import pickle
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

# Make the sibling oracles module importable regardless of invocation dir.
sys.path.insert(0, str(Path(__file__).parent))

from leveldiv import TileGrid, load_smb_level


def filled(symbol, width, height):
    """A width x height grid holding `symbol` in every cell."""
    return TileGrid(tuple(symbol * width for _ in range(height)))


def _data_dir():
    import leveldiv.corpus as corpus

    return Path(corpus.__file__).parent / "data"


@pytest.fixture(scope="session")
def mario_1_1():
    return load_smb_level("mario-1-1")


@pytest.fixture(scope="session")
def smb_data_dir():
    return _data_dir() / "smb"


@pytest.fixture(scope="session")
def tiny_patch_path():
    """The bundled 4x4 image patch, a minimal training sample."""
    return _data_dir() / "tiny" / "patch-4x4.txt"


def _round_trip(fn, task):
    """fn(task) as a pool's caller sees it: its result, or the exception it
    raised, comes back through pickle."""
    try:
        result = fn(task)
    except Exception as exc:
        raise pickle.loads(pickle.dumps(exc)) from None
    return pickle.loads(pickle.dumps(result))


@pytest.fixture
def in_process_pool(monkeypatch):
    """Replace ProcessPoolExecutor by a stand-in that starts no process.

    It runs the initializer and every task in this process, each through a
    pickle round trip, and sends back each result or raised exception through
    pickle too, as a real pool does. The returned record holds the worker
    count of each pool (`started`) and the bytes a real pool would pickle on
    the way out: the initializer arguments once per worker, plus each task
    with its function (`pickled`).
    """
    record = SimpleNamespace(started=[], pickled=0)

    class InProcessPool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            record.started.append(max_workers)
            data = pickle.dumps(initargs)
            record.pickled += max_workers * len(data)
            if initializer is not None:
                initializer(*pickle.loads(data))

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, tasks):
            calls = [pickle.dumps((fn, task)) for task in tasks]
            record.pickled += sum(map(len, calls))
            return [_round_trip(fn, task) for fn, task in map(pickle.loads, calls)]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return record
