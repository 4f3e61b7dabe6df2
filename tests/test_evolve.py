import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leveldiv import (
    Conv,
    DimsMismatchError,
    DivergenceConfig,
    EvolutionConfig,
    FilterDims,
    FilterTooLargeError,
    Flip,
    GridEdit,
    LevelSet,
    SnippetTooWideError,
    TileAlphabet,
    TileGrid,
    extract_distribution,
    fitness,
    hill_climb,
    load_smb_level,
    merge_distributions,
    snippet_fitness,
)
from leveldiv.evolve import CandidateCounts, random_init
from conftest import filled


def _training_set():
    grid = TileGrid((
        "----------",
        "---?------",
        "--XXX--<>-",
        "XXXXXXX[]X",
    ))
    return LevelSet.from_grids([("tiny", grid)])


def _symbols(symbols):
    """A training set whose alphabet is `symbols`, in that order."""
    return LevelSet.from_grids([("symbols", TileGrid((symbols,)))])


def _state(grid, training, dims):
    """The climb state of `grid` against the merged training levels."""
    p_dist = merge_distributions(extract_distribution(g, dims) for g in training.grids)
    return CandidateCounts(grid, p_dist, DivergenceConfig(dims=dims))


def _scratch(p_dist, grid, config):
    """Fitness of `grid` recomputed from scratch."""
    return fitness(p_dist, extract_distribution(grid, config.dims), config).fitness


def _mutated(mutation, grid, training, dims, rng):
    """The child hill_climb would evaluate: one mutation applied to `grid`."""
    state = _state(grid, training, dims)
    state.commit(state.propose(mutation.edits(state.rows, training, dims, rng)))
    return state.grid()


def _small_config(**overrides):
    settings = dict(
        divergence=DivergenceConfig(dims=FilterDims(2, 2)),
        target_width=12,
        target_height=6,
        budget=120,
        mutation=Conv(),
        seed=9,
    )
    settings.update(overrides)
    return EvolutionConfig(**settings)


def test_config_validation():
    with pytest.raises(ValueError):
        EvolutionConfig(budget=0)
    with pytest.raises(FilterTooLargeError):
        EvolutionConfig(target_width=3)  # narrower than the default 4x4 filter
    with pytest.raises(FilterTooLargeError):
        EvolutionConfig(target_height=3)
    with pytest.raises(ValueError):
        Flip(rate=0.0)
    with pytest.raises(ValueError):
        Flip(rate=-1.0)
    for rate in (math.nan, math.inf):
        with pytest.raises(ValueError):
            Flip(rate=rate)


def test_random_init_properties():
    alpha = TileAlphabet.from_symbols("ab-")
    grid = random_init(alpha, 7, 4, random.Random(1))
    assert grid.width == 7 and grid.height == 4
    assert set(grid.cells) <= set(alpha.symbols)
    again = random_init(alpha, 7, 4, random.Random(1))
    assert grid == again


def test_flip_mutate_changes_cells_to_different_symbols():
    base = filled("a", 10, 10)
    training = _symbols("abc")
    dims = FilterDims(1, 1)
    rng = random.Random(2)
    changed_totals = 0
    for _ in range(500):
        mutated = _mutated(Flip(3.0), base, training, dims, rng)
        diff = [
            (x, y)
            for y in range(10)
            for x in range(10)
            if mutated.rows[y][x] != base.rows[y][x]
        ]
        changed_totals += len(diff)
        for x, y in diff:
            assert mutated.rows[y][x] in ("b", "c")
    assert changed_totals > 0


def test_flip_mutate_mean_flip_count():
    training = _symbols("-Xo")
    dims = FilterDims(1, 1)
    state = _state(filled("-", 30, 14), training, dims)
    rng = random.Random(3)
    applications = 10_000
    flips = 0
    for _ in range(applications):
        child = state.propose(Flip(3.0).edits(state.rows, training, dims, rng))
        flips += sum(len(row) - row.count("-") for row in child.rows)
    mean = flips / applications
    assert 2.8 <= mean <= 3.2


def test_flip_mutate_uniform_over_other_symbols():
    base = filled("b", 1, 1)
    training = _symbols("abc")
    dims = FilterDims(1, 1)
    rng = random.Random(4)
    seen = {"a": 0, "c": 0}
    for _ in range(4000):
        # rate 1 on a 1x1: always flips
        mutated = _mutated(Flip(1.0), base, training, dims, rng)
        assert mutated.rows[0][0] != "b"
        seen[mutated.rows[0][0]] += 1
    ratio = seen["a"] / (seen["a"] + seen["c"])
    assert 0.45 < ratio < 0.55


def test_flip_mutate_singleton_alphabet_is_identity():
    base = filled("a", 5, 5)
    rng = random.Random(5)
    assert Flip(3.0).edits(list(base.rows), _symbols("a"), FilterDims(1, 1), rng) == []


def test_conv_mutate_copies_a_training_window():
    training = _training_set()
    dims = FilterDims(2, 2)
    base = filled("-", 8, 5)
    rng = random.Random(7)
    for _ in range(200):
        mutated = _mutated(Conv(), base, training, dims, rng)
        diff = [
            (x, y)
            for y in range(5)
            for x in range(8)
            if mutated.rows[y][x] != base.rows[y][x]
        ]
        if not diff:
            continue  # patch can equal what it overwrote
        xs = [x for x, _ in diff]
        ys = [y for _, y in diff]
        assert max(xs) - min(xs) < dims.width
        assert max(ys) - min(ys) < dims.height
        assert set(mutated.cells) <= set(training.alphabet.symbols) | {"-"}
    # a seeded draw reproduces exactly
    a = _mutated(Conv(), base, training, dims, random.Random(8))
    b = _mutated(Conv(), base, training, dims, random.Random(8))
    assert a == b


def test_conv_mutate_patch_contents_match_source():
    # with a single training level every patch must be one of its windows
    training = _training_set()
    grid = training.grids[0]
    dims = FilterDims(3, 2)
    windows = set()
    for y in range(grid.height - 1):
        for x in range(grid.width - 2):
            windows.add("".join(r[x : x + 3] for r in grid.rows[y : y + 2]))
    base = filled("#", 9, 6)
    rng = random.Random(9)
    for _ in range(100):
        mutated = _mutated(Conv(), base, training, dims, rng)
        diff = [(x, y) for y in range(6) for x in range(9)
                if mutated.rows[y][x] != "#"]
        xs = {x for x, _ in diff}
        ys = {y for _, y in diff}
        # '#' never occurs in training patches, so the patch rectangle is exact
        assert len(xs) == 3 and len(ys) == 2
        x0, y0 = min(xs), min(ys)
        patch = "".join(
            "".join(mutated.rows[y0 + j][x0 + i] for i in range(3)) for j in range(2)
        )
        assert patch in windows


def test_candidate_counts_propose_and_commit():
    rng = random.Random(11)
    grid = random_init(TileAlphabet.from_symbols("ab-"), 9, 7, rng)
    dims = FilterDims(3, 2)
    state = _state(grid, _training_set(), dims)
    for step in range(300):
        ew = rng.randint(1, 4)
        eh = rng.randint(1, 4)
        x = rng.randint(0, 9 - ew)
        y = rng.randint(0, 7 - eh)
        patch = tuple(
            "".join(rng.choice("ab-") for _ in range(ew)) for _ in range(eh)
        )
        rows, counts, fit = list(state.rows), dict(state.counts), state.fitness()
        child = state.propose([GridEdit(x, y, patch)])
        # Proposing leaves the state as it was.
        assert (state.rows, state.counts, state.fitness()) == (rows, counts, fit)
        if step % 2:
            continue
        state.commit(child)
        fresh = extract_distribution(state.grid(), dims)
        assert state.counts == fresh.counts
        assert state.total == fresh.total
        assert state.fitness() == child.fitness


def test_candidate_counts_rejects_out_of_bounds_edit():
    state = _state(filled("a", 4, 4), _training_set(), FilterDims(2, 2))
    with pytest.raises(ValueError):
        state.propose([GridEdit(3, 0, ("bb",))])
    with pytest.raises(ValueError):
        state.propose([GridEdit(-1, 0, ("b",))])


def test_candidate_counts_fitness_matches_scratch():
    rng = random.Random(13)
    training = _training_set()
    dims = FilterDims(2, 2)
    config = DivergenceConfig(dims=dims, weight=0.3)
    p_dist = merge_distributions(
        [extract_distribution(g, dims) for g in training.grids]
    )
    state = CandidateCounts(random_init(training.alphabet, 10, 6, rng), p_dist, config)
    for _ in range(50):
        edit = GridEdit(
            rng.randint(0, 8), rng.randint(0, 4),
            (rng.choice(training.alphabet.symbols) * 2,),
        )
        state.commit(state.propose([edit]))
        scratch = fitness(p_dist, extract_distribution(state.grid(), dims), config)
        # The sums are exact, as whole numbers of 2**-bits.
        unit = 2**state.bits
        assert (state.sum_p_q / unit, state.sum_q_p / unit) == (scratch.kl_p_q, scratch.kl_q_p)
        assert state.fitness() == scratch.fitness


def test_candidate_counts_commit_after_a_finer_proposal():
    # A proposal can make the unit of the sums finer; a child proposed before
    # it must still commit exactly.
    rng = random.Random(17)
    training = _training_set()
    dims = FilterDims(2, 2)
    config = DivergenceConfig(dims=dims)
    p_dist = extract_distribution(training.grids[0], dims)
    state = CandidateCounts(random_init(training.alphabet, 10, 6, rng), p_dist, config)
    refined = 0
    for _ in range(200):
        first = state.propose(Conv().edits(state.rows, training, dims, rng))
        bits = state.bits
        state.propose(Flip(3.0).edits(state.rows, training, dims, rng))
        refined += state.bits > bits
        state.commit(first)
        assert state.fitness() == first.fitness == _scratch(p_dist, state.grid(), config)
    assert refined


@st.composite
def _rows(draw, symbols, width, height):
    row = st.text(st.sampled_from(symbols), min_size=width, max_size=width)
    return draw(st.lists(row, min_size=height, max_size=height).map(tuple))


@st.composite
def _edit(draw, symbols, width, height):
    ew, eh = draw(st.integers(1, width)), draw(st.integers(1, height))
    x, y = draw(st.integers(0, width - ew)), draw(st.integers(0, height - eh))
    return GridEdit(x, y, draw(_rows(symbols, ew, eh)))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data())
def test_incremental_fitness_equals_scratch_under_random_edits(data):
    symbols = data.draw(st.lists(st.sampled_from("-X?#<>[]o"), min_size=2, max_size=5,
                                 unique=True))
    dims = FilterDims(data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
    config = DivergenceConfig(dims=dims, weight=data.draw(st.floats(0.0, 1.0)))

    def grid():
        width = data.draw(st.integers(dims.width, 8))
        height = data.draw(st.integers(dims.height, 6))
        return TileGrid(data.draw(_rows(symbols, width, height)))

    p_dist = extract_distribution(grid(), dims)
    state = CandidateCounts(grid(), p_dist, config)
    edit = _edit(symbols, state.width, state.height)
    steps = data.draw(st.lists(st.tuples(st.lists(edit, max_size=3), st.booleans()),
                               max_size=8))
    for edits, accept in steps:
        child = state.propose(edits)
        assert child.fitness.hex() == _scratch(p_dist, TileGrid(tuple(child.rows)), config).hex()
        if accept:
            state.commit(child)
        assert state.fitness().hex() == _scratch(p_dist, state.grid(), config).hex()
        assert state.counts == extract_distribution(state.grid(), dims).counts


def test_candidate_counts_dims_guard():
    p_dist = extract_distribution(filled("a", 4, 4), FilterDims(2, 2))
    with pytest.raises(DimsMismatchError):
        CandidateCounts(filled("a", 4, 4), p_dist, DivergenceConfig(dims=FilterDims(3, 3)))


def test_hill_climb_determinism():
    training = _training_set()
    first = hill_climb(training, _small_config())
    second = hill_climb(training, _small_config())
    assert first.best == second.best
    assert first.best_fitness == second.best_fitness
    assert first.trace == second.trace
    other = hill_climb(training, _small_config(seed=10))
    assert other.best != first.best


def test_hill_climb_trace_invariants():
    training = _training_set()
    for mutation in (Conv(), Flip(rate=3.0)):
        result = hill_climb(training, _small_config(mutation=mutation))
        assert len(result.trace) == 121  # initial entry plus one per evaluation
        assert all(isinstance(value, float) for value in result.trace)
        # The accepted parent is always the best candidate seen so far.
        assert result.best_fitness == max(result.trace)
        assert result.elapsed > 0.0


def test_hill_climb_result_matches_scratch_recompute():
    training = _training_set()
    for mutation in (Conv(), Flip(rate=3.0)):
        for accept_equal in (True, False):
            config = _small_config(mutation=mutation, accept_equal=accept_equal)
            result = hill_climb(training, config)
            dims = config.divergence.dims
            p_dist = merge_distributions(
                [extract_distribution(g, dims) for g in training.grids]
            )
            q_dist = extract_distribution(result.best, dims)
            scratch = fitness(p_dist, q_dist, config.divergence)
            assert result.best_fitness == scratch.fitness


def test_hill_climb_target_dims():
    training = _training_set()
    result = hill_climb(training, _small_config(target_width=15, target_height=9))
    assert result.best.width == 15
    assert result.best.height == 9
    # default height comes from the first training level
    result = hill_climb(training, _small_config(target_height=None, budget=5))
    assert result.best.height == training.grids[0].height


def test_hill_climb_alphabet_closure():
    training = _training_set()
    result = hill_climb(training, _small_config())
    assert set(result.best.cells) <= set(training.alphabet.symbols)


def test_hill_climb_singleton_alphabet_flip_stalls():
    # nothing to flip to: every candidate equals its parent
    training = LevelSet.from_grids([("flat", filled("-", 6, 6))])
    config = EvolutionConfig(
        divergence=DivergenceConfig(dims=FilterDims(2, 2)),
        target_width=6,
        target_height=6,
        budget=20,
        mutation=Flip(rate=3.0),
        seed=0,
    )
    result = hill_climb(training, config)
    assert result.best == filled("-", 6, 6)
    assert result.best_fitness == 0.0
    assert all(value == 0.0 for value in result.trace)


def test_hill_climb_training_must_fit_filter():
    training = LevelSet.from_grids([("dot", TileGrid(("ab", "ba")))])
    config = EvolutionConfig(
        divergence=DivergenceConfig(dims=FilterDims(3, 3)),
        target_width=8,
        target_height=8,
        budget=5,
    )
    with pytest.raises(FilterTooLargeError):
        hill_climb(training, config)


def test_snippet_fitness_mario(mario_1_1):
    training = LevelSet.from_grids([("mario-1-1", mario_1_1)])
    config = DivergenceConfig(dims=FilterDims(4, 4))
    rows = snippet_fitness(training, 30, config)
    assert len(rows) == mario_1_1.width - 30 + 1
    offsets = [offset for offset, _ in rows]
    assert offsets == list(range(200))
    # every offset against the direct computation
    p_dist = extract_distribution(mario_1_1, config.dims)
    for offset, value in rows:
        snippet = mario_1_1.crop(offset, 0, 30, mario_1_1.height)
        assert value.hex() == _scratch(p_dist, snippet, config).hex()


def test_snippet_fitness_multiple_levels():
    g1 = filled("a", 6, 3)
    g2 = TileGrid(("ababab", "bababa", "aaabbb"))
    training = LevelSet.from_grids([("one", g1), ("two", g2)])
    config = DivergenceConfig(dims=FilterDims(2, 2))
    rows = snippet_fitness(training, 4, config)
    assert len(rows) == 3 + 3
    assert [offset for offset, _ in rows] == [0, 1, 2, 0, 1, 2]
    # The slid fitness equals the crop-and-extract one at every offset of every level.
    smb = LevelSet.from_grids(
        (name, load_smb_level(name)) for name in ("mario-1-2", "mario-1-3", "mario-4-2")
    )
    for levels, width, weight in ((training, 4, 0.5), (smb, 20, 0.3)):
        config = DivergenceConfig(dims=FilterDims(2, 2), weight=weight)
        p_dist = merge_distributions(extract_distribution(g, config.dims) for g in levels.grids)
        expected = [
            (offset, _scratch(p_dist, grid.crop(offset, 0, width, grid.height), config).hex())
            for grid in levels.grids
            for offset in range(grid.width - width + 1)
        ]
        rows = snippet_fitness(levels, width, config)
        assert [(offset, value.hex()) for offset, value in rows] == expected


def test_snippet_fitness_errors(mario_1_1):
    training = LevelSet.from_grids([("mario-1-1", mario_1_1)])
    with pytest.raises(SnippetTooWideError):
        snippet_fitness(training, 300, DivergenceConfig(dims=FilterDims(4, 4)))
    with pytest.raises(FilterTooLargeError):
        snippet_fitness(training, 3, DivergenceConfig(dims=FilterDims(4, 4)))


def test_incremental_equals_scratch_under_mutation_stream():
    # shorter version of the full acceptance check, mixed flip and conv edits
    training = LevelSet.from_grids([("mario-1-1", load_smb_level("mario-1-1"))])
    dims = FilterDims(4, 4)
    config = DivergenceConfig(dims=dims)
    p_dist = extract_distribution(training.grids[0], dims)
    rng = random.Random(55)
    state = CandidateCounts(random_init(training.alphabet, 30, 14, rng), p_dist, config)
    for step in range(100):
        mutation = Flip(3.0) if step % 2 else Conv()
        child = state.propose(mutation.edits(state.rows, training, dims, rng))
        state.commit(child)
        scratch_state = CandidateCounts(state.grid(), p_dist, config)
        assert child.fitness == scratch_state.fitness() == state.fitness()


def test_random_init_frequencies_near_uniform():
    # 10,000 cells over 11 symbols: each count within 5 binomial sigma of n/11
    alpha = TileAlphabet.from_symbols("-<>?EQSX[]o")
    grid = random_init(alpha, 100, 100, random.Random(3))
    joined = "".join(grid.rows)
    n = 100 * 100
    p = 1.0 / len(alpha.symbols)
    sigma = (n * p * (1.0 - p)) ** 0.5
    for symbol in alpha.symbols:
        assert abs(joined.count(symbol) - n * p) < 5.0 * sigma


def test_conv_mutate_filter_sized_candidate_is_a_training_window():
    training = _training_set()
    dims = FilterDims(2, 2)
    windows = extract_distribution(training.grids[0], dims).counts
    base = filled("#", 2, 2)
    for seed in range(20):
        out = _mutated(Conv(), base, training, dims, random.Random(seed))
        assert "".join(out.rows) in windows


def test_candidate_counts_whole_grid_edit_matches_full_extraction():
    rng = random.Random(11)
    alpha = TileAlphabet.from_symbols("ab-")
    dims = FilterDims(2, 2)
    state = _state(random_init(alpha, 9, 5, rng), _training_set(), dims)
    replacement = random_init(alpha, 9, 5, rng)
    state.commit(state.propose([GridEdit(0, 0, replacement.rows)]))
    fresh = extract_distribution(replacement, dims)
    assert state.counts == fresh.counts
    assert state.total == fresh.total


def test_snippet_fitness_full_width_is_zero(mario_1_1):
    training = LevelSet.from_grids([("mario-1-1", mario_1_1)])
    rows = snippet_fitness(
        training, mario_1_1.width, DivergenceConfig(dims=FilterDims(4, 4))
    )
    assert len(rows) == 1
    assert rows[0][0] == 0
    assert rows[0][1] == 0.0


def test_snippet_fitness_proper_snippets_all_negative(mario_1_1):
    # every strict snippet omits some training patterns, so both terms
    # of the weighted divergence are positive
    training = LevelSet.from_grids([("mario-1-1", mario_1_1)])
    rows = snippet_fitness(training, 30, DivergenceConfig(dims=FilterDims(4, 4)))
    assert all(value < 0.0 for _, value in rows)
