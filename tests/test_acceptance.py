"""End-to-end acceptance checks.

Each test prints one `criterion N: PASS/FAIL - detail` line (run pytest with
-s to see them for passing tests) and then asserts the same condition.
"""

import random
import statistics
import time

import mpmath
import pytest

from leveldiv import (
    Conv,
    DivergenceConfig,
    EvolutionConfig,
    FilterDims,
    Flip,
    LevelSet,
    TileGrid,
    average_linkage,
    cut_dendrogram,
    extract_distribution,
    fitness,
    hill_climb,
    kl_div,
    load_level,
    pairwise_matrix,
    snippet_fitness,
)
from bundled import SMB_LEVEL_TYPES, load_smb_corpus
from leveldiv.evolve import CandidateCounts, _Side, random_init
from leveldiv.patterns import window_count
from oracles import mp_fitness, mp_kl, random_rows

mpmath.mp.dps = 50


def _criterion(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="session")
def training_set(mario_1_1):
    return LevelSet.from_grids([("mario-1-1", mario_1_1)])


def _climb(training, config):
    """(initial fitness, result) of one run: the sink keeps only the first
    value it receives, the initial candidate's fitness."""
    received = []

    def sink(fitness):
        if not received:
            received.append(fitness)

    result = hill_climb(training, config, sink)
    return received[0], result


def _run_batch(training, dims, mutation, seeds, weight=0.5):
    """(initial fitness, result) per seed."""
    results = []
    for seed in seeds:
        config = EvolutionConfig(
            divergence=DivergenceConfig(dims=dims, weight=weight),
            target_width=30,
            target_height=14,
            budget=10_000,
            mutation=mutation,
            seed=seed,
        )
        results.append(_climb(training, config))
    return results


@pytest.fixture(scope="session")
def conv4_runs(training_set):
    return _run_batch(training_set, FilterDims(4, 4), Conv(), range(20))


@pytest.fixture(scope="session")
def flip4_runs(training_set):
    return _run_batch(training_set, FilterDims(4, 4), Flip(rate=3.0), range(20))


@pytest.fixture(scope="session")
def conv2_runs(training_set):
    return _run_batch(training_set, FilterDims(2, 2), Conv(), range(20))


@pytest.fixture(scope="session")
def flip2_runs(training_set):
    return _run_batch(training_set, FilterDims(2, 2), Flip(rate=3.0), range(20))


def test_criterion_1_pattern_count_fixtures(mario_1_1):
    start = time.perf_counter()
    two = extract_distribution(mario_1_1, FilterDims(2, 2))
    four = extract_distribution(mario_1_1, FilterDims(4, 4))
    elapsed = time.perf_counter() - start
    rare = sum(1 for c in four.counts.values() if c <= 2)
    ok = (
        two.distinct == 90
        and max(two.counts.values()) == 2100
        and four.distinct == 570
        and max(four.counts.values()) == 1349
        and rare / four.distinct >= 0.5
        and elapsed < 1.0
    )
    _criterion(
        1,
        ok,
        f"2x2 {two.distinct} distinct (top {max(two.counts.values())}), "
        f"4x4 {four.distinct} distinct (top {max(four.counts.values())}), "
        f"{rare}/{four.distinct} with count<=2, {elapsed * 1000:.0f}ms",
    )


def test_criterion_2_clustering_recovers_level_types():
    levels = load_smb_corpus()
    start = time.perf_counter()
    failures = []
    for size in range(1, 6):
        for weight in (0.0, 0.5, 1.0):
            config = DivergenceConfig(dims=FilterDims(size, size), weight=weight)
            matrix = pairwise_matrix(levels, config)
            labels = cut_dendrogram(average_linkage(matrix), 3)
            groups = {}
            for name, label in zip(levels.names, labels):
                groups.setdefault(label, set()).add(SMB_LEVEL_TYPES[name])
            if len(groups) != 3 or any(len(t) != 1 for t in groups.values()):
                failures.append(f"{size}x{size}/w={weight}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    _criterion(
        2,
        ok,
        f"15 sweep points (filters 1x1..5x5, w in {{0, 0.5, 1}}), "
        f"failures: {failures or 'none'}, {elapsed:.1f}s",
    )


def test_criterion_3_mutation_operator_contrast(
    conv4_runs, flip4_runs, conv2_runs, flip2_runs
):
    total_elapsed = sum(
        r.elapsed for batch in (conv4_runs, flip4_runs, conv2_runs, flip2_runs)
        for _, r in batch
    )
    conv4_improved = sum(1 for initial, r in conv4_runs if r.best_fitness > initial)
    conv4_median_gain = statistics.median(
        r.best_fitness - initial for initial, r in conv4_runs
    )
    flip4_median_gain = statistics.median(
        r.best_fitness - initial for initial, r in flip4_runs
    )
    conv4_median = statistics.median(r.best_fitness for _, r in conv4_runs)
    conv2_median = statistics.median(r.best_fitness for _, r in conv2_runs)
    flip4_median = statistics.median(r.best_fitness for _, r in flip4_runs)
    flip2_median = statistics.median(r.best_fitness for _, r in flip2_runs)
    ok = (
        conv4_improved >= 19
        and flip4_median_gain < 0.1 * conv4_median_gain
        and conv2_median > conv4_median
        and flip2_median > flip4_median
        and total_elapsed < 300.0
    )
    _criterion(
        3,
        ok,
        f"conv-4x4 improved {conv4_improved}/20, median gains "
        f"conv {conv4_median_gain:.3f} vs flip {flip4_median_gain:.3f}, "
        f"median finals conv2 {conv2_median:.3f} > conv4 {conv4_median:.3f}, "
        f"flip2 {flip2_median:.3f} > flip4 {flip4_median:.3f}, "
        f"{total_elapsed:.0f}s of evolution",
    )


def test_criterion_4_beats_training_snippets(training_set, conv4_runs):
    config = DivergenceConfig(dims=FilterDims(4, 4))
    best_snippet = max(value for _, value in snippet_fitness(training_set, 30, config))
    wins = sum(1 for _, r in conv4_runs if r.best_fitness >= best_snippet)
    ok = wins >= 10
    _criterion(
        4,
        ok,
        f"{wins}/20 runs reached the best width-30 snippet fitness "
        f"({best_snippet:.4f})",
    )


def _novel_window_fraction(grid, training_dist, dims):
    candidate = extract_distribution(grid, dims)
    novel = sum(
        count for cells, count in candidate.counts.items()
        if cells not in training_dist.counts
    )
    return novel / candidate.total


def _training_coverage(grid, training_dist, dims):
    candidate = extract_distribution(grid, dims)
    return sum(1 for cells in training_dist.counts if cells in candidate.counts)


def test_criterion_5_asymmetry_behavior(training_set):
    dims = FilterDims(4, 4)
    training_dist = extract_distribution(training_set.grids[0], dims)
    stats = {}
    for weight in (0.0, 1.0):
        runs = _run_batch(training_set, dims, Conv(), range(10), weight=weight)
        stats[weight] = (
            statistics.fmean(
                _novel_window_fraction(r.best, training_dist, dims) for _, r in runs
            ),
            statistics.fmean(
                _training_coverage(r.best, training_dist, dims) for _, r in runs
            ),
        )
    novel_0, coverage_0 = stats[0.0]
    novel_1, coverage_1 = stats[1.0]
    ok = novel_0 < novel_1 and coverage_1 > coverage_0
    _criterion(
        5,
        ok,
        f"mean novel fraction w=0 {novel_0:.4f} < w=1 {novel_1:.4f}; "
        f"mean coverage w=1 {coverage_1:.1f} > w=0 {coverage_0:.1f}",
    )


def test_criterion_6_performance_envelope(mario_1_1, conv4_runs, conv2_runs):
    start = time.perf_counter()
    extract_distribution(mario_1_1, FilterDims(4, 4))
    training_ms = (time.perf_counter() - start) * 1000.0
    time_4x4 = statistics.median(r.elapsed for _, r in conv4_runs)
    time_2x2 = statistics.median(r.elapsed for _, r in conv2_runs)
    ok = training_ms <= 100.0 and time_4x4 <= 10.0 and time_2x2 <= 5.0
    _criterion(
        6,
        ok,
        f"training {training_ms:.1f}ms (<=100ms), 10k evals "
        f"{time_4x4:.2f}s 4x4 (<=10s), {time_2x2:.2f}s 2x2 (<=5s)",
    )


def test_criterion_7_oracle_equivalence():
    rng = random.Random(2026)
    filters = [
        FilterDims(fw, fh) for fw in range(1, 4) for fh in range(1, 4)
    ]
    checked = 0
    worst = 0.0
    self_ok = True
    while checked < 200:
        dims = filters[checked % len(filters)]
        rows_p = random_rows(rng, max_side=10, max_symbols=4)
        rows_q = random_rows(rng, max_side=10, max_symbols=4)
        if (
            len(rows_p[0]) < dims.width or len(rows_p) < dims.height
            or len(rows_q[0]) < dims.width or len(rows_q) < dims.height
        ):
            continue
        p = extract_distribution(TileGrid(tuple(rows_p)), dims)
        q = extract_distribution(TileGrid(tuple(rows_q)), dims)
        weight = rng.random()
        config = DivergenceConfig(dims=dims, weight=weight)
        kl_err = abs(
            kl_div(p, q, 1e-5)
            - float(mp_kl(p.counts, p.total, q.counts, q.total, 1e-5))
        )
        fit_err = abs(
            fitness(p, q, config).fitness
            - float(mp_fitness(p.counts, p.total, q.counts, q.total, 1e-5, weight))
        )
        worst = max(worst, kl_err, fit_err)
        if kl_div(p, p, 1e-5) != 0.0:
            self_ok = False
        checked += 1
    ok = worst < 1e-9 and self_ok
    _criterion(
        7,
        ok,
        f"200 random pairs, worst abs deviation {worst:.2e} (<1e-9), "
        f"kl(p,p)==0 exactly: {self_ok}",
    )


def test_criterion_8_incremental_equals_scratch(training_set):
    dims = FilterDims(4, 4)
    config = DivergenceConfig(dims=dims)
    training_dist = extract_distribution(training_set.grids[0], dims)
    rng = random.Random(99)
    state = CandidateCounts(
        random_init(training_set.symbols, 30, 14, rng), _Side(training_dist, config, window_count(30, 14, dims))
    )
    mismatches = 0
    for step in range(1000):
        mutation = Flip(3.0) if rng.random() < 0.5 else Conv()
        child = state.propose(mutation.edits(state.rows, training_set, dims, rng))
        state.commit(child)
        incremental = child.fitness
        scratch = fitness(
            training_dist, extract_distribution(state.grid(), dims), config
        ).fitness
        if incremental != scratch:
            mismatches += 1
    ok = mismatches == 0
    _criterion(
        8,
        ok,
        f"1000 mixed flip/conv mutations, {mismatches} fitness mismatches "
        f"(bit-exact comparison)",
    )


def test_criterion_9_tiny_sample_generation(tiny_patch_path):
    training = LevelSet.from_grids([("patch", load_level(tiny_patch_path))])
    assert training.grids[0].width == 4 and training.grids[0].height == 4
    improved = 0
    finals = []
    for seed in range(10):
        config = EvolutionConfig(
            divergence=DivergenceConfig(dims=FilterDims(2, 2)),
            target_width=30,
            target_height=14,
            budget=10_000,
            mutation=Conv(),
            seed=seed,
        )
        initial, result = _climb(training, config)
        finals.append(result.best_fitness)
        if result.best_fitness > initial:
            improved += 1
    ok = improved == 10
    _criterion(
        9,
        ok,
        f"{improved}/10 runs improved on the 4x4 patch; "
        f"median final fitness {statistics.median(finals):.3f}",
    )
