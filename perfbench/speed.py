"""Machine-speed calibration of a run's times.

On a shared host the speed of the same Python code drifts from one minute to
the next, and repetition inside a run does not remove that. A run therefore
also times a fixed slice of pure-Python work in gaps between its timed pieces
of work: window keys built by slicing and joining rows and counted in a dict,
random draws, and table-driven log sums, the three kinds of work leveldiv
does. Each time the run measures is stated at a reference speed:

    reported seconds = measured seconds
                       * (REFERENCE_SLICE_S / median slice seconds) ** sensitivity

with one median over all the slices of the run. The slice is the benchmark's
own code, so a change to leveldiv does not move it; the median slice time is
printed with every run, so the measured times can be recovered.

A workload's sensitivity is how much its times move with the slice's as the
host's load changes: the slope of log(measured op_p50_s) on log(median slice
seconds) over 40 runs of the workload on the shared 2-core Xeon host the
benchmark was built on, where the median slice ranged over a factor of 1.7.
It was 0.58 on climb-4x4 and 0.84 on corpus (0.89 to 0.94 for its single
commands), and the same within 0.1 in each half of the runs. The start-up
times of fresh interpreters followed the slice less (slopes 0.37 and 0.55),
but calibrating them with the workload's sensitivity still brought the
medians of two sets of ten runs closer together.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import time

# The slice's seconds at the reference speed, about its time on the 2-core
# Xeon host the benchmark was built on.
REFERENCE_SLICE_S = 0.02
# Share of a run's wall time spent on slices.
SHARE = 0.1

_ROWS = tuple(
    "".join("X-?E<>[]oSQ"[(x * 7 + y * 3 + x * y) % 11] for x in range(64)) for y in range(14)
)
_LOGS = tuple(math.log(i + 1.5) for i in range(512))


def _window_keys() -> None:
    counts: dict[str, int] = {}
    for y in range(len(_ROWS) - 3):
        band = _ROWS[y : y + 4]
        for x in range(len(_ROWS[0]) - 3):
            key = "".join(row[x : x + 4] for row in band)
            counts[key] = counts.get(key, 0) + 1


def _random_draws() -> None:
    rng = random.Random(5)
    hits = 0
    for _ in range(4000):
        if rng.random() < 0.01:
            hits += rng.randrange(10)


def _log_sums() -> None:
    counts = {i: i % 97 for i in range(512)}
    total = 0.0
    for i in range(3000):
        c = counts.get(i % 700, 0)
        total += _LOGS[c] * (_LOGS[c] - _LOGS[(c * 7) % 512])


def slice_seconds(repeats: int = 14) -> float:
    """Seconds of one slice, with the garbage collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(repeats):
            _window_keys()
            _random_draws()
            _log_sums()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class Speed:
    """The slices of one run, taken in gaps between its timed pieces of work."""

    def __init__(self, sensitivity: float) -> None:
        self.sensitivity = sensitivity
        self.start = time.perf_counter()
        self.slices: list[float] = []

    def gap(self) -> None:
        """Run slices: at least one, and until they fill SHARE of the run so far."""
        self.slices.append(slice_seconds())
        while sum(self.slices) < SHARE * (time.perf_counter() - self.start):
            self.slices.append(slice_seconds())

    def factor(self) -> float:
        """What measured seconds are multiplied by to state them at the reference speed."""
        return (REFERENCE_SLICE_S / statistics.median(self.slices)) ** self.sensitivity
