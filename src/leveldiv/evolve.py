"""(1+1) evolutionary level generation driven by pattern-divergence fitness.

A single candidate grid is mutated, evaluated against the merged training
distribution, and replaced by its child whenever the child's fitness is no
worse. Candidate pattern counts are maintained incrementally: an edit only
recounts the windows that overlap it, and the resulting fitness is
bit-identical to a from-scratch recomputation because terms are produced by
the same expressions and summed with the correctly rounded math.fsum, whose
result does not depend on the order of the terms.

Randomness comes from `random.Random` (Mersenne Twister); a fixed seed
reproduces a run exactly within this implementation. Draw order is documented
per operator so traces stay stable across refactors.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

from .divergence import DivergenceConfig, fitness, smoothed_prob, weighted_fitness
from .errors import DimsMismatchError, FilterTooLargeError, SnippetTooWideError
from .levels import LevelSet, TileAlphabet, TileGrid
from .patterns import (
    FilterDims,
    PatternDistribution,
    extract_distribution,
    level_distributions,
    merge_distributions,
    window_count,
)


@dataclass(frozen=True)
class Flip:
    """Resample random cells; `rate` is the expected number of changed tiles."""

    rate: float = 3.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise ValueError(f"flip rate must be finite and > 0, got {self.rate}")

    def edits(
        self, rows: list[str], training: LevelSet, dims: FilterDims, rng: random.Random
    ) -> list[GridEdit]:
        """Single-cell edits of one application; empty for singleton alphabets.

        Each cell flips with probability rate/(width*height) to a symbol of the
        training alphabet other than its own. Draw order: one rng.random() per
        cell in row-major order, plus one rng.randrange() per flipped cell.
        """
        symbols = training.alphabet.symbols
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


@dataclass(frozen=True)
class Conv:
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
        window_count(width, height, dims)
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


@dataclass(frozen=True)
class EvolutionConfig:
    """Settings of one hill-climb run.

    `target_height` of None means "same height as the first training level",
    resolved when the run starts.
    """

    divergence: DivergenceConfig = field(default_factory=DivergenceConfig)
    target_width: int = 30
    target_height: int | None = None
    budget: int = 10_000
    mutation: MutationKind = Conv()
    seed: int = 0
    accept_equal: bool = True

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        dims = self.divergence.dims
        if self.target_width < dims.width:
            raise FilterTooLargeError(
                f"target width {self.target_width} is narrower than the {dims} filter"
            )
        if self.target_height is not None and self.target_height < dims.height:
            raise FilterTooLargeError(
                f"target height {self.target_height} is shorter than the {dims} filter"
            )


@dataclass(frozen=True)
class EvolutionResult:
    """`trace` is the candidate fitness of every evaluation: entry 0 is the
    initial candidate, then one entry per evaluation. The best fitness so far
    is its running maximum, which always equals the parent's fitness."""

    best: TileGrid
    best_fitness: float
    trace: tuple[float, ...]
    elapsed: float


@dataclass(frozen=True)
class GridEdit:
    """Replacement rows for the rectangle whose top-left cell is (x, y)."""

    x: int
    y: int
    rows: tuple[str, ...]

    @property
    def width(self) -> int:
        return len(self.rows[0])

    @property
    def height(self) -> int:
        return len(self.rows)


class CandidateCounts:
    """Window-pattern counts of a working grid, kept current under edits.

    Holds the mutable row strings plus the count map.
    """

    def __init__(self, grid: TileGrid, dims: FilterDims):
        self.dims = dims
        self.width = grid.width
        self.height = grid.height
        self.rows: list[str] = list(grid.rows)
        dist = extract_distribution(grid, dims)
        self.counts: dict[str, int] = dict(dist.counts)
        self.total = dist.total

    def grid(self) -> TileGrid:
        return TileGrid(tuple(self.rows))

    def apply(self, edit: GridEdit) -> GridEdit:
        """Apply `edit`, recount only windows overlapping it, return the undo edit."""
        x, y = edit.x, edit.y
        ew, eh = edit.width, edit.height
        if x < 0 or y < 0 or x + ew > self.width or y + eh > self.height:
            raise ValueError(
                f"edit {ew}x{eh}@({x},{y}) outside {self.width}x{self.height} grid"
            )
        fw, fh = self.dims.width, self.dims.height
        x_lo = max(0, x - fw + 1)
        x_hi = min(self.width - fw, x + ew - 1)
        y_lo = max(0, y - fh + 1)
        y_hi = min(self.height - fh, y + eh - 1)
        rows = self.rows
        counts = self.counts
        for wy in range(y_lo, y_hi + 1):
            band = rows[wy : wy + fh]
            for wx in range(x_lo, x_hi + 1):
                key = "".join(r[wx : wx + fw] for r in band)
                count = counts[key]
                if count == 1:
                    del counts[key]
                else:
                    counts[key] = count - 1
        undo_rows = tuple(rows[y + i][x : x + ew] for i in range(eh))
        for i, patch_row in enumerate(edit.rows):
            row = rows[y + i]
            rows[y + i] = row[:x] + patch_row + row[x + ew :]
        for wy in range(y_lo, y_hi + 1):
            band = rows[wy : wy + fh]
            for wx in range(x_lo, x_hi + 1):
                key = "".join(r[wx : wx + fw] for r in band)
                counts[key] = counts.get(key, 0) + 1
        return GridEdit(x, y, undo_rows)


class FitnessEvaluator:
    """Fitness of evolving candidates against a fixed training distribution.

    The candidate's window total is fixed by its dimensions, so both smoothed
    estimates reduce to per-count lookup tables built once up front. Terms
    come from the same expressions as kl_div's, and both sums are the
    correctly rounded math.fsum, so the fast path is bit-identical to the
    from-scratch one in any term order; acceptance criterion 8 and
    test_evaluator_matches_scratch_fitness check that bit for bit. The
    summand is written out here rather than shared with kl_div because this
    loop runs once per evaluation, and a call per term would slow the climb.
    """

    def __init__(
        self, training: PatternDistribution, config: DivergenceConfig, candidate_total: int
    ):
        if training.dims != config.dims:
            raise DimsMismatchError(
                f"training distribution is {training.dims} but config expects {config.dims}"
            )
        self.config = config
        self.training = training
        eps = config.epsilon
        self.p_terms = []
        for cells, count in training.counts.items():
            p_prime = smoothed_prob(count, training.total, eps)
            self.p_terms.append((cells, p_prime, math.log(p_prime)))
        self.q_prime_by_count = [
            smoothed_prob(c, candidate_total, eps) for c in range(candidate_total + 1)
        ]
        self.log_q_by_count = [math.log(v) for v in self.q_prime_by_count]
        self.log_p_by_count = {
            0: math.log(smoothed_prob(0, training.total, eps))
        }
        for c in set(training.counts.values()):
            self.log_p_by_count[c] = math.log(smoothed_prob(c, training.total, eps))

    def divergences(self, state: CandidateCounts) -> tuple[float, float]:
        """(kl_p_q, kl_q_p) of the candidate against the training distribution."""
        get_q = state.counts.get
        log_q = self.log_q_by_count
        kl_p_q = math.fsum(
            p_prime * (log_p - log_q[get_q(cells, 0)])
            for cells, p_prime, log_p in self.p_terms
        )
        q_prime = self.q_prime_by_count
        get_p = self.training.counts.get
        log_p_by = self.log_p_by_count
        kl_q_p = math.fsum(
            q_prime[count] * (log_q[count] - log_p_by[get_p(cells, 0)])
            for cells, count in state.counts.items()
        )
        return kl_p_q, kl_q_p

    def fitness_of(self, state: CandidateCounts) -> float:
        kl_p_q, kl_q_p = self.divergences(state)
        return weighted_fitness(kl_p_q, kl_q_p, self.config.weight)


def random_init(
    alphabet: TileAlphabet, width: int, height: int, rng: random.Random
) -> TileGrid:
    """Uniform random grid over `alphabet`; one draw per cell in row-major order."""
    symbols = alphabet.symbols
    return TileGrid(
        tuple("".join(rng.choice(symbols) for _ in range(width)) for _ in range(height))
    )


def hill_climb(training: LevelSet, config: EvolutionConfig) -> EvolutionResult:
    """Run the (1+1) climber: mutate, evaluate, keep the child when no worse.

    The training distribution is merged once up front; the initial candidate's
    evaluation is logged at trace index 0 and does not count against the
    budget. Rejected children are rolled back by applying the undo edits in
    reverse order.
    """
    start = time.perf_counter()
    dims = config.divergence.dims
    p_dist = merge_distributions(level_distributions(training, dims))
    height = (
        config.target_height
        if config.target_height is not None
        else training.grids[0].height
    )
    rng = random.Random(config.seed)
    state = CandidateCounts(
        random_init(training.alphabet, config.target_width, height, rng), dims
    )
    evaluator = FitnessEvaluator(p_dist, config.divergence, state.total)
    parent_fitness = evaluator.fitness_of(state)
    trace = [parent_fitness]
    mutation = config.mutation
    accept_equal = config.accept_equal
    for _ in range(config.budget):
        edits = mutation.edits(state.rows, training, dims, rng)
        undos = [state.apply(edit) for edit in edits]
        child_fitness = evaluator.fitness_of(state)
        if child_fitness > parent_fitness or (
            accept_equal and child_fitness == parent_fitness
        ):
            parent_fitness = child_fitness
        else:
            for undo in reversed(undos):
                state.apply(undo)
        trace.append(child_fitness)
    return EvolutionResult(
        state.grid(), parent_fitness, tuple(trace), time.perf_counter() - start
    )


def snippet_fitness(
    training: LevelSet, snippet_width: int, config: DivergenceConfig
) -> list[tuple[int, float]]:
    """Fitness of every full-height training snippet of `snippet_width` tiles.

    Snippets slide one column at a time over each training level (levels in
    set order) and are scored against the merged training distribution, so
    they answer "how fit is the training data itself at this size".
    """
    dims = config.dims
    if snippet_width < dims.width:
        raise FilterTooLargeError(
            f"snippet width {snippet_width} is narrower than the {dims} filter"
        )
    p_dist = merge_distributions(level_distributions(training, dims))
    for name, grid in training:
        if snippet_width > grid.width:
            raise SnippetTooWideError(
                f"snippet width {snippet_width} exceeds level {name} "
                f"width {grid.width}"
            )
    results = []
    for _, grid in training:
        for offset in range(grid.width - snippet_width + 1):
            snippet = grid.crop(offset, 0, snippet_width, grid.height)
            q_dist = extract_distribution(snippet, dims)
            results.append((offset, fitness(p_dist, q_dist, config).fitness))
    return results
