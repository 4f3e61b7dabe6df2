"""(1+1) evolutionary level generation driven by pattern-divergence fitness.

A single candidate grid is mutated, evaluated against the merged training
distribution, and replaced by its child whenever the child's fitness is no
worse. The climb keeps each window column's strip (its cells, joined top to
bottom) and re-keys only the rows a child changes, slicing keys from the
strips; their net count changes move two exact integer sums of KL summands. A
child is committed only if accepted; one that changes no cell is its parent,
priced without counting. The resulting fitness is bit-identical to a
from-scratch recomputation: both are correctly rounded sums of the same terms.
Each candidate's fitness goes to a caller's sink as soon as it is computed,
so the climb keeps no trace.
Training snippets are scored the same way, sliding one column at a time.
Every strip, the climb's and the slide's alike, comes from `patterns._strips`.
Summands live on a `_Side`, one per training distribution, config and window
total: one per climb, per snippet height, and per filter and level size in compare.

Randomness comes from `random.Random` (Mersenne Twister); a fixed seed
reproduces a run exactly within this implementation. Draw order is documented
per operator so traces stay stable across refactors.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from itertools import chain, repeat
from typing import Callable, Iterable, NamedTuple

from .divergence import DivergenceConfig, _smoothed, _summand, weighted_divergence
from .errors import LevelDivError, record
from .levels import LevelSet, TileGrid
from .patterns import (
    _BLOCK,
    FilterDims,
    PatternDistribution,
    _spans,
    _strips,
    _window_keys,
    level_distributions,
    merge_distributions,
    window_count,
)


@record
class Flip(NamedTuple):
    """Resample random cells; `rate` is the expected number of changed tiles."""

    rate: float = 3.0

    def _check(self) -> None:
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise ValueError(f"flip rate must be finite and > 0, got {self.rate}")

    def edits(
        self, rows: list[str], training: LevelSet, dims: FilterDims, rng: random.Random
    ) -> list[GridEdit]:
        """Single-cell edits of one application; empty for singleton alphabets.

        Each cell flips with probability rate/(width*height) to a symbol of
        `training.symbols` other than its own. Draw order: one rng.random() per
        cell in row-major order, plus one rng.randrange() per flipped cell.
        """
        symbols = training.symbols
        n = len(symbols)
        if n < 2:
            return []
        height = len(rows)
        width = len(rows[0])
        prob = self.rate / (width * height)
        edits = []
        for y in range(height):
            row = rows[y]
            for x in range(width):
                if rng.random() < prob:
                    current = row[x]
                    # Uniform over the other n-1 symbols: collisions with the
                    # current symbol map to the last one, which the draw skips.
                    symbol = symbols[rng.randrange(n - 1)]
                    if symbol == current:
                        symbol = symbols[n - 1]
                    edits.append(GridEdit(x, y, (symbol,)))
        return edits


class Conv(NamedTuple):
    """Copy one filter-sized patch from a training level into the candidate."""

    def edits(
        self, rows: list[str], training: LevelSet, dims: FilterDims, rng: random.Random
    ) -> list[GridEdit]:
        """One edit pasting a random filter-sized training patch at a random spot.

        Training level, source corner and destination corner are each uniform.
        Draw order: training level index, source x, source y, destination x,
        destination y, each uniform via rng.randrange().
        """
        width, height = len(rows[0]), len(rows)
        source = training.levels[rng.randrange(len(training.levels))][1]
        sx = rng.randrange(1 + source.width - dims.width)
        sy = rng.randrange(1 + source.height - dims.height)
        dx = rng.randrange(1 + width - dims.width)
        dy = rng.randrange(1 + height - dims.height)
        # Not from a generator: such a tuple is shrunk from a larger one, and each
        # freed patch grew CPython's free list of small tuples (up to ~110 KiB).
        patch = tuple([source.rows[sy + i][sx : sx + dims.width] for i in range(dims.height)])
        return [GridEdit(dx, dy, patch)]


MutationKind = Flip | Conv


@record
class EvolutionConfig(NamedTuple):
    """Settings of one hill-climb run.

    `target_height` of None means "same height as the first training level",
    resolved when the run starts.
    """

    divergence: DivergenceConfig = DivergenceConfig()
    target_width: int = 30
    target_height: int | None = None
    budget: int = 10_000
    mutation: MutationKind = Conv()
    seed: int = 0

    def _check(self) -> None:
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")


# The most cells a target may have: 20 times the largest bundled level
# (230x14), so that no target size can ask for unbounded memory.
MAX_TARGET_CELLS = 65_536


class EvolutionResult(NamedTuple):
    """The final parent, its fitness (the maximum of every value the run's sink
    received) and the run's wall time in seconds."""

    best: TileGrid
    best_fitness: float
    elapsed: float


class GridEdit(NamedTuple):
    """Replacement rows for the rectangle whose top-left cell is (x, y)."""

    x: int
    y: int
    rows: tuple[str, ...]


class Child(NamedTuple):
    """A proposed candidate: rows, strips, net count change per key, sums in 2**-bits, fitness."""

    rows: list[str]
    strips: list[str]
    delta: dict[str, int]
    bits: int
    sum_p_q: int
    sum_q_p: int
    fitness: float


class _Side(dict):
    """The training side of a divergence against candidates of one window total.

    It maps a pattern's (training count, candidate count) pair to its (p-to-q,
    q-to-p) summands from divergence._summand, as exact integers in units of
    2**-bits; a side where the pattern is absent adds 0. Every double is a
    whole multiple of a power of two, so `bits` grows when a finer summand
    shows up, scaling every value and `baseline`, the empty candidate's sum_p_q.
    """

    def __init__(self, training: PatternDistribution, config: DivergenceConfig, total: int):
        if training.dims != config.dims:
            raise LevelDivError(
                f"training distribution is {training.dims} but config expects {config.dims}"
            )
        self.training, self.config, self.total = training, config, total
        self.bits = self.baseline = 0
        # Training patterns with one count share a summand: n of them add n times it.
        seen = Counter(training.counts.values())
        for count in seen:  # memoise first: it can refine the unit
            self[count, 0]
        self.baseline = sum(n * self[count, 0][0] for count, n in seen.items())

    def __missing__(self, pair: tuple[int, int]) -> tuple[int, int]:
        return self.setdefault(pair, self._exact(pair))

    def _exact(self, pair: tuple[int, int]) -> tuple[int, int]:
        """The pair's summands, refining the unit first if they need a finer one."""
        # Each denominator of a ratio below is a power of two, 2**(bit_length - 1).
        p_count, q_count = pair
        p_side = _smoothed(p_count, self.training.total, self.config.epsilon)
        q_side = _smoothed(q_count, self.total, self.config.epsilon)
        p_q, p_d = _summand(p_side, q_side).as_integer_ratio() if p_count else (0, 1)
        q_p, q_d = _summand(q_side, p_side).as_integer_ratio() if q_count else (0, 1)
        bits = max(p_d, q_d).bit_length() - 1
        if bits > self.bits:
            shift, self.bits = bits - self.bits, bits
            self.baseline <<= shift
            for key, (a, b) in self.items():
                self[key] = (a << shift, b << shift)
        return p_q << (self.bits + 1 - p_d.bit_length()), q_p << (self.bits + 1 - q_d.bit_length())

    def sums(self, counts: dict[str, int]) -> tuple[int, int]:
        """(sum_p_q, sum_q_p), in 2**-bits, of a candidate with these counts, tallied
        by count pair in C. A pair missing from the memo is worked out but not kept:
        keeping those of 30 generated levels raised compare's peak memory by a fifth."""
        pairs = Counter(zip(map(self.training.counts.get, counts, repeat(0)), counts.values()))
        while True:
            bits, sum_p_q, sum_q_p = self.bits, self.baseline, 0
            for pair, n in pairs.items():
                p_q, q_p = self.get(pair) or self._exact(pair)
                sum_p_q += n * (p_q - self[pair[0], 0][0])
                sum_q_p += n * q_p
            if self.bits == bits:  # else a new summand refined the unit: add up again
                return sum_p_q, sum_q_p

    def fitness(self, bits: int, sum_p_q: int, sum_q_p: int) -> float:
        """Fitness from sums in 2**-bits: each division rounds once, correctly,
        giving the bits of math.fsum over the same terms in any order."""
        unit = 1 << bits
        return -weighted_divergence(sum_p_q / unit, sum_q_p / unit, self.config.weight)


class CandidateCounts:
    """A candidate grid's window counts and its divergence from a training side.

    Both directed divergences are exact integer sums in units of 2**-bits:
    sum_p_q over the training patterns and sum_q_p over the candidate's. The
    side may refine its unit later; a child scales the sums up when it reads
    them. So the incremental fitness equals the from-scratch one by
    construction. Each window column's strip is kept; a window's key is one
    slice of it. The strips start as one `patterns._strips` block of every
    window column; `propose` rebuilds only their middles over the rows a
    child changes, as one block of the window columns over the changed cells.
    A child that changes no cell shares the state's rows, strips and sums.
    """

    def __init__(self, grid: TileGrid, side: _Side):
        self.side = side
        self.width, self.height = grid.width, grid.height
        self.rows: list[str] = list(grid.rows)
        dims = side.config.dims
        self.strips = _strips(self.rows, 0, self.width - dims.width + 1, dims.width)
        # A plain dict: Counter's __delitem__, which commit calls, runs in Python.
        self.counts = dict(Counter(_window_keys(self.strips, dims, self.height)))
        self.sum_p_q, self.sum_q_p = side.sums(self.counts)
        self.bits = side.bits

    def fitness(self) -> float:
        """Fitness of the committed candidate."""
        return self.side.fitness(self.bits, self.sum_p_q, self.sum_q_p)

    def grid(self) -> TileGrid:
        return TileGrid(tuple(self.rows))

    def propose(self, edits: Iterable[GridEdit]) -> Child:
        """The child made by `edits`, applied in order to copies of the rows and
        strips. An edit that changes no cell is skipped; for the others, the keys
        of the windows over the cells they change are sliced from the strips,
        before and after the changed rows are spliced into them."""
        rows, strips = self.rows, self.strips
        gone: list[str] = []
        new: list[str] = []
        dims = self.side.config.dims
        fw, fh = dims.width, dims.height
        for edit in edits:
            x, y, patch = edit.x, edit.y, edit.rows
            ew, eh = len(patch[0]), len(patch)
            if x < 0 or y < 0 or x + ew > self.width or y + eh > self.height:
                raise ValueError(
                    f"edit {ew}x{eh}@({x},{y}) outside {self.width}x{self.height} grid"
                )
            if ew * eh > 1:
                # Shrink the edit to the box of the cells it changes: a window
                # clear of them has one key before and after, which cancel. A
                # 1x1 edit skips this, as each one from Flip changes its cell.
                old = [row[x : x + ew] for row in rows[y : y + eh]]
                changed = [i for i in range(eh) if old[i] != patch[i]]
                if not changed:
                    continue
                cols = [j for i in changed for j in range(ew) if old[i][j] != patch[i][j]]
                i0, i1, j0, j1 = changed[0], changed[-1] + 1, min(cols), max(cols) + 1
                x, y, ew, eh = x + j0, y + i0, j1 - j0, i1 - i0
                patch = [patch_row[j0:j1] for patch_row in patch[i0:i1]]
            if rows is self.rows:  # the first change: the state's lists stay as they are
                rows, strips = rows.copy(), strips.copy()
            x0, x1 = max(0, x - fw + 1), min(self.width - fw, x + ew - 1) + 1
            spans = _spans(dims, range(max(0, y - fh + 1), min(self.height - fh, y + eh - 1) + 1))
            for i, patch_row in enumerate(patch):
                row = rows[y + i]
                rows[y + i] = row[:x] + patch_row + row[x + ew :]
            edited, head, tail = rows[y : y + eh], y * fw, (y + eh) * fw
            for c, middle in enumerate(_strips(edited, x0, x1 - x0, fw), x0):
                strip = strips[c]
                gone += [strip[s] for s in spans]
                strips[c] = strip = strip[:head] + middle + strip[tail:]
                new += [strip[s] for s in spans]
        if rows is self.rows:
            return Child(rows, strips, {}, self.bits, self.sum_p_q, self.sum_q_p, self.fitness())
        # Each edit's windows are counted out before it and in after it, so over
        # all the edits the net change telescopes to new minus gone.
        delta = Counter(new)
        delta.subtract(gone)
        return self._child(rows, strips, delta)

    def _child(self, rows: list[str], strips: list[str], delta: dict[str, int]) -> Child:
        """The child with these rows and strips; its counts differ from the state's by `delta`."""
        side, bits = self.side, self.side.bits
        sum_p_q, sum_q_p = self.sum_p_q << (bits - self.bits), self.sum_q_p << (bits - self.bits)
        get_q, get_p = self.counts.get, side.training.counts.get
        for key, change in delta.items():
            if change:
                p_count, q_count = get_p(key, 0), get_q(key, 0)
                old_p_q, old_q_p = side[p_count, q_count]
                new_p_q, new_q_p = side[p_count, q_count + change]
                sum_p_q += new_p_q - old_p_q
                sum_q_p += new_q_p - old_q_p
        if side.bits != bits:  # a new summand refined the unit part-way: add up again
            return self._child(rows, strips, delta)
        fitness = side.fitness(bits, sum_p_q, sum_q_p)
        return Child(rows, strips, delta, bits, sum_p_q, sum_q_p, fitness)

    def commit(self, child: Child) -> None:
        """Adopt a child proposed from the current state."""
        counts = self.counts
        for key, change in child.delta.items():
            if change:
                counts[key] = count = counts.get(key, 0) + change
                if not count:
                    del counts[key]
        self.rows, self.strips = child.rows, child.strips
        self.bits, self.sum_p_q, self.sum_q_p = child.bits, child.sum_p_q, child.sum_q_p


def random_init(
    symbols: tuple[str, ...], width: int, height: int, rng: random.Random
) -> TileGrid:
    """Uniform random grid over `symbols`; one draw per cell in row-major order."""
    return TileGrid(
        tuple("".join(rng.choice(symbols) for _ in range(width)) for _ in range(height))
    )


def hill_climb(
    training: LevelSet,
    config: EvolutionConfig,
    sink: Callable[[float], object],
) -> EvolutionResult:
    """Run the (1+1) climber: mutate, evaluate, keep the child when no worse.

    The training distribution is merged once up front; the initial candidate's
    fitness is passed to `sink` first (trace index 0) and does not count
    against the budget, then each evaluation's fitness as soon as it is
    computed, so `sink` receives budget + 1 values and the climb keeps no
    per-evaluation state. The best fitness so far is their running maximum.
    Each child is priced by CandidateCounts.propose and committed only when
    accepted, so a rejected child leaves nothing to undo. A target of more
    than MAX_TARGET_CELLS cells is a ValueError; a training level or a target
    grid smaller than the filter is a LevelDivError.
    """
    start = time.perf_counter()
    height = (
        config.target_height
        if config.target_height is not None
        else training.grids[0].height
    )
    if config.target_width * height > MAX_TARGET_CELLS:
        raise ValueError(
            f"target {config.target_width}x{height} has more than "
            f"{MAX_TARGET_CELLS} cells"
        )
    dims = config.divergence.dims
    p_dist = merge_distributions(level_distributions(training, dims))
    rng = random.Random(config.seed)
    grid = random_init(training.symbols, config.target_width, height, rng)
    total = window_count(config.target_width, height, dims)
    state = CandidateCounts(grid, _Side(p_dist, config.divergence, total))
    parent_fitness = state.fitness()
    sink(parent_fitness)
    mutation = config.mutation
    for _ in range(config.budget):
        child = state.propose(mutation.edits(state.rows, training, dims, rng))
        if child.fitness >= parent_fitness:
            state.commit(child)
            parent_fitness = child.fitness
        sink(child.fitness)
    return EvolutionResult(state.grid(), parent_fitness, time.perf_counter() - start)


def snippet_fitness(
    training: LevelSet, snippet_width: int, config: DivergenceConfig
) -> list[tuple[int, float]]:
    """Fitness of every full-height training snippet of `snippet_width` tiles.

    Snippets slide one column at a time over each training level (levels in
    set order) and are scored against the merged training distribution, so
    they answer "how fit is the training data itself at this size". Each step
    takes the strip entering at the right edge from `patterns._strips`, built
    `_BLOCK` columns at a time, so at most one block of them is alive.
    """
    dims = config.dims
    if snippet_width < dims.width:
        raise LevelDivError(
            f"snippet width {snippet_width} is narrower than the {dims} filter"
        )
    p_dist = merge_distributions(level_distributions(training, dims))
    for name, grid in training:
        if snippet_width > grid.width:
            raise LevelDivError(
                f"snippet width {snippet_width} exceeds level {name} "
                f"width {grid.width}"
            )
    # One side per level height: every snippet of that height has one window total.
    sides: dict[int, _Side] = {}
    results = []
    for _, grid in training:
        if grid.height not in sides:
            total = window_count(snippet_width, grid.height, dims)
            sides[grid.height] = _Side(p_dist, config, total)
        state = CandidateCounts(grid.crop(0, 0, snippet_width, grid.height), sides[grid.height])
        results.append((0, state.fitness()))
        columns, first = grid.width - dims.width + 1, snippet_width - dims.width + 1
        entering = chain.from_iterable(
            _strips(grid.rows, x, min(_BLOCK, columns - x), dims.width)
            for x in range(first, columns, _BLOCK)
        )
        spans = _spans(dims, range(grid.height - dims.height + 1))
        for offset, strip in enumerate(entering, 1):
            # One step right: the first strip, whose keys are the windows at
            # column offset-1, leaves, and the one at the new right edge enters.
            strips = state.strips[1:]
            strips.append(strip)
            delta = Counter(map(strip.__getitem__, spans))
            delta.subtract(map(state.strips[0].__getitem__, spans))
            # The slide reads only strips, so the rows stay the first snippet's.
            child = state._child(state.rows, strips, delta)
            state.commit(child)
            results.append((offset, child.fitness))
    return results
