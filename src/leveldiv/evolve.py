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

Randomness comes from `random.Random` (Mersenne Twister); a fixed seed
reproduces a run exactly within this implementation. Draw order is documented
per operator so traces stay stable across refactors.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from itertools import chain
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
        patch = tuple(
            source.rows[sy + i][sx : sx + dims.width] for i in range(dims.height)
        )
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


class _Memo(dict):
    """A dict that fills in a missing key from `make(key)` on its first lookup."""

    def __init__(self, make: Callable[[tuple[int, int]], tuple[int, int]]):
        self.make = make

    def __missing__(self, key: tuple[int, int]) -> tuple[int, int]:
        value = self[key] = self.make(key)
        return value


class CandidateCounts:
    """A candidate grid's window counts and its divergence from fixed training counts.

    Both directed divergences are exact integer sums: sum_p_q over the training
    patterns and sum_q_p over the candidate's, in units of 2**-bits, where bits
    grows whenever a finer summand shows up (every double is a whole multiple
    of a power of two). A summand depends only on the pattern's (training
    count, candidate count) pair; it comes from divergence._summand on the
    pair's first use and is memoised. Dividing a sum by 2**bits rounds once,
    correctly, giving the bits of math.fsum over the same terms in any order,
    so the incremental fitness equals the from-scratch one by construction.
    Each window column's strip is kept; a window's key is one slice of it. The
    strips start as one `patterns._strips` block of every window column;
    `propose` rebuilds only their middles over the rows a child changes, as one
    block of the window columns over the changed cells. A child that changes
    no cell shares the state's rows, strips and sums.
    """

    def __init__(self, grid: TileGrid, training: PatternDistribution, config: DivergenceConfig):
        if training.dims != config.dims:
            raise LevelDivError(
                f"training distribution is {training.dims} but config expects {config.dims}"
            )
        self.config = config
        self.training = training
        self.width, self.height = grid.width, grid.height
        self.rows: list[str] = list(grid.rows)
        dims = config.dims
        self.total = window_count(self.width, self.height, dims)
        self._summands = _Memo(self._exact_summands)
        # Start from an empty candidate, whose sums hold only training-side
        # summands, and commit the grid's counts as one delta.
        self.counts: dict[str, int] = {}
        self.bits = self.sum_p_q = self.sum_q_p = 0
        # Training patterns with one count share a summand: n of them add n times it.
        seen = Counter(training.counts.values())
        for count in seen:  # memoise first: it can refine the unit
            self._summands[count, 0]
        self.sum_p_q = sum(n * self._summands[count, 0][0] for count, n in seen.items())
        strips = _strips(self.rows, 0, self.width - dims.width + 1, dims.width)
        counts = Counter(_window_keys(strips, dims, self.height))
        self.commit(self._child(self.rows, strips, counts))

    def _exact_summands(self, pair: tuple[int, int]) -> tuple[int, int]:
        """(p-to-q, q-to-p) summands, in units of 2**-bits, of a pattern with these
        (training, candidate) counts; a side where the pattern is absent adds 0.
        Each denominator of a ratio below is a power of two, 2**(bit_length - 1)."""
        p_count, q_count = pair
        p_side = _smoothed(p_count, self.training.total, self.config.epsilon)
        q_side = _smoothed(q_count, self.total, self.config.epsilon)
        ratios = (
            _summand(p_side, q_side).as_integer_ratio() if p_count else (0, 1),
            _summand(q_side, p_side).as_integer_ratio() if q_count else (0, 1),
        )
        bits = max(d.bit_length() for _, d in ratios) - 1
        if bits > self.bits:
            shift, self.bits = bits - self.bits, bits
            self.sum_p_q <<= shift
            self.sum_q_p <<= shift
            for key, (a, b) in self._summands.items():
                self._summands[key] = (a << shift, b << shift)
        return tuple(n << (self.bits + 1 - d.bit_length()) for n, d in ratios)

    def _fitness(self, sum_p_q: int, sum_q_p: int) -> float:
        unit = 1 << self.bits
        return -weighted_divergence(sum_p_q / unit, sum_q_p / unit, self.config.weight)

    def fitness(self) -> float:
        """Fitness of the committed candidate."""
        return self._fitness(self.sum_p_q, self.sum_q_p)

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
        dims = self.config.dims
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
        bits, sum_p_q, sum_q_p = self.bits, self.sum_p_q, self.sum_q_p
        get_q, get_p = self.counts.get, self.training.counts.get
        summands = self._summands
        for key, change in delta.items():
            if change:
                p_count, q_count = get_p(key, 0), get_q(key, 0)
                old_p_q, old_q_p = summands[p_count, q_count]
                new_p_q, new_q_p = summands[p_count, q_count + change]
                sum_p_q += new_p_q - old_p_q
                sum_q_p += new_q_p - old_q_p
        if self.bits != bits:  # a new summand refined the unit part-way: add up again
            return self._child(rows, strips, delta)
        return Child(rows, strips, delta, bits, sum_p_q, sum_q_p, self._fitness(sum_p_q, sum_q_p))

    def commit(self, child: Child) -> None:
        """Adopt a child proposed from the current state."""
        counts = self.counts
        for key, change in child.delta.items():
            if change:
                counts[key] = count = counts.get(key, 0) + change
                if not count:
                    del counts[key]
        self.rows, self.strips = child.rows, child.strips
        # A later proposal may have made the unit finer since this one.
        self.sum_p_q = child.sum_p_q << (self.bits - child.bits)
        self.sum_q_p = child.sum_q_p << (self.bits - child.bits)


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
    state = CandidateCounts(grid, p_dist, config.divergence)
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
    results = []
    for _, grid in training:
        state = CandidateCounts(grid.crop(0, 0, snippet_width, grid.height), p_dist, config)
        results.append((0, state.fitness()))
        columns, first = grid.width - dims.width + 1, snippet_width - dims.width + 1
        entering = chain.from_iterable(
            _strips(grid.rows, x, min(_BLOCK, columns - x), dims.width)
            for x in range(first, columns, _BLOCK)
        )
        for offset, strip in enumerate(entering, 1):
            # One step right: the first strip, whose keys are the windows at
            # column offset-1, leaves, and the one at the new right edge enters.
            strips = state.strips[1:]
            strips.append(strip)
            delta = Counter(_window_keys([strip], dims, grid.height))
            delta.subtract(_window_keys(state.strips[:1], dims, grid.height))
            rows = [row[offset : offset + snippet_width] for row in grid.rows]
            child = state._child(rows, strips, delta)
            state.commit(child)
            results.append((offset, child.fitness))
    return results
