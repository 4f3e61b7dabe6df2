import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leveldiv import (
    Conv,
    DivergenceConfig,
    EvolutionConfig,
    FilterDims,
    Flip,
    GridEdit,
    LevelDivError,
    LevelSet,
    TileGrid,
    extract_distribution,
    fitness,
    hill_climb,
    merge_distributions,
    snippet_fitness,
)
from bundled import load_smb_level
from leveldiv import evolve
from leveldiv.evolve import MAX_TARGET_CELLS, CandidateCounts, _Side, random_init
from leveldiv.patterns import window_count
from conftest import WIDE_TILES, filled


def _training_set():
    grid = TileGrid((
        "----------",
        "---?------",
        "--XXX--<>-",
        "XXXXXXX[]X",
    ))
    return LevelSet.from_grids([("tiny", grid)])


def _symbols(symbols):
    """A training set whose symbols are `symbols`, in that order."""
    return LevelSet.from_grids([("symbols", TileGrid((symbols,)))])


def _counts(grid, p_dist, config):
    """The climb state of `grid` against `p_dist`, on a side of its own."""
    return CandidateCounts(
        grid, _Side(p_dist, config, window_count(grid.width, grid.height, config.dims))
    )


def _state(grid, training, dims):
    """The climb state of `grid` against the merged training levels."""
    p_dist = merge_distributions(extract_distribution(g, dims) for g in training.grids)
    return _counts(grid, p_dist, DivergenceConfig(dims=dims))


def _scratch(p_dist, grid, config):
    """Fitness of `grid` recomputed from scratch."""
    return fitness(p_dist, extract_distribution(grid, config.dims), config).fitness


def _strips(rows, dims):
    """Each window column's cells joined top to bottom, rebuilt from `rows`."""
    return ["".join(row[x : x + dims.width] for row in rows)
            for x in range(len(rows[0]) - dims.width + 1)]


def _climb(training, config):
    """The result of one climb and the list of every value its sink received."""
    trace = []
    return hill_climb(training, config, trace.append), trace


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
    with pytest.raises(ValueError):
        Flip(rate=0.0)
    with pytest.raises(ValueError):
        Flip(rate=-1.0)
    for rate in (math.nan, math.inf):
        with pytest.raises(ValueError):
            Flip(rate=rate)


def test_random_init_properties():
    symbols = ("a", "b", "-")
    grid = random_init(symbols, 7, 4, random.Random(1))
    assert grid.width == 7 and grid.height == 4
    assert set(grid.cells) <= set(symbols)
    again = random_init(symbols, 7, 4, random.Random(1))
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
        assert set(mutated.cells) <= set(training.symbols) | {"-"}
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
    grid = random_init(("a", "b", "-"), 9, 7, rng)
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
        before = list(state.rows), list(state.strips), dict(state.counts), state.fitness()
        child = state.propose([GridEdit(x, y, patch)])
        # Proposing leaves the state as it was, strips included.
        assert (state.rows, state.strips, state.counts, state.fitness()) == before
        if step % 2:
            continue
        state.commit(child)
        fresh = extract_distribution(state.grid(), dims)
        assert state.counts == fresh.counts
        assert state.side.total == fresh.total
        assert state.fitness() == child.fitness


def _applied(rows, edits):
    """`rows` with `edits` pasted in order, cell by cell."""
    rows = list(rows)
    for edit in edits:
        for i, patch_row in enumerate(edit.rows):
            row = rows[edit.y + i]
            rows[edit.y + i] = row[: edit.x] + patch_row + row[edit.x + len(patch_row) :]
    return rows


def _with_cell(rows, i, j, symbols):
    """`rows` with cell (j, i) set to the first of `symbols` that differs from it."""
    rows = list(rows)
    symbol = next(s for s in symbols if s != rows[i][j])
    rows[i] = rows[i][:j] + symbol + rows[i][j + 1 :]
    return tuple(rows)


def test_candidate_counts_propose_at_clamped_edges():
    # Edits in each corner and along each edge of a 10x6 grid, where the keyed
    # rows and columns are cut off by the border, then one child whose three
    # edits overlap each other; every child is committed in turn. Besides a
    # random patch, each spot gets a patch equal to the cells under it (which
    # changes nothing) and one that changes only its middle cell.
    rng = random.Random(19)
    training = _training_set()
    width, height = 10, 6

    # Each spot is (x, y, make), where make(rows, x, y) gives the patch rows.
    def patch(ew, eh):
        cells = tuple("".join(rng.choice(training.symbols) for _ in range(ew)) for _ in range(eh))
        return lambda rows, x, y: cells

    def current(ew, eh, change):
        def make(rows, x, y):
            cells = tuple(row[x : x + ew] for row in rows[y : y + eh])
            return _with_cell(cells, eh // 2, ew // 2, training.symbols) if change else cells
        return make

    for dims in (FilterDims(3, 2), FilterDims(1, 4)):
        config = DivergenceConfig(dims=dims)
        p_dist = extract_distribution(training.grids[0], dims)
        state = _counts(random_init(training.symbols, width, height, rng), p_dist, config)
        children = []
        for ew, eh in ((1, 1), (2, 3), (4, 2), (3, 3)):
            for x in (0, (width - ew) // 2, width - ew):
                for y in (0, (height - eh) // 2, height - eh):
                    if (x, y) != ((width - ew) // 2, (height - eh) // 2):
                        children.append([(x, y, patch(ew, eh))])
                        if ew * eh > 1:
                            children.append([(x, y, current(ew, eh, False))])
                            children.append([(x, y, current(ew, eh, True))])
        children.append([
            (width - 4, 0, patch(4, 3)),
            (width - 3, 1, patch(3, 3)),
            (width - 5, 2, patch(3, 2)),
        ])
        for spots in children:
            edits = [GridEdit(x, y, make(state.rows, x, y)) for x, y, make in spots]
            child = state.propose(edits)
            assert child.rows == _applied(state.rows, edits)
            child_grid = TileGrid(tuple(child.rows))
            assert child.fitness.hex() == _scratch(p_dist, child_grid, config).hex()
            state.commit(child)
            assert state.counts == extract_distribution(child_grid, dims).counts
            assert state.strips == _strips(state.rows, dims)


def test_candidate_counts_propose_keys_only_windows_over_changed_cells(mario_1_1):
    # A 4x4 edit rewrites a 7x7 block of 4x4 windows; one changed cell lies in
    # only 4x4 of them, keyed once before the edit and once after.
    dims = FilterDims(4, 4)
    training = LevelSet.from_grids([("mario-1-1", mario_1_1)])
    state = _state(random_init(training.symbols, 30, 14, random.Random(23)), training, dims)
    x, y = 12, 5
    cells = tuple(row[x : x + 4] for row in state.rows[y : y + 4])
    edits = [GridEdit(x, y, _with_cell(cells, 1, 2, training.symbols))]
    one = state.propose(edits)
    assert len(one.delta) <= 16 + 16
    assert one.rows == _applied(state.rows, edits) != state.rows

    same = state.propose([GridEdit(x, y, cells)])
    assert not any(same.delta.values())
    assert same.rows == state.rows
    assert same.fitness == state.fitness()
    # Committing it leaves the whole state as it was.
    before = (list(state.rows), list(state.strips), dict(state.counts), state.bits,
              state.sum_p_q, state.sum_q_p)
    state.commit(same)
    assert (state.rows, state.strips, state.counts, state.bits,
            state.sum_p_q, state.sum_q_p) == before


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
    state = _counts(random_init(training.symbols, 10, 6, rng), p_dist, config)
    for _ in range(50):
        edit = GridEdit(
            rng.randint(0, 8), rng.randint(0, 4),
            (rng.choice(training.symbols) * 2,),
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
    state = _counts(random_init(training.symbols, 10, 6, rng), p_dist, config)
    refined = 0
    for _ in range(200):
        first = state.propose(Conv().edits(state.rows, training, dims, rng))
        bits = state.side.bits
        state.propose(Flip(3.0).edits(state.rows, training, dims, rng))
        refined += state.side.bits > bits
        state.commit(first)
        assert state.fitness() == first.fitness == _scratch(p_dist, state.grid(), config)
    assert refined


@st.composite
def _rows(draw, symbols, width, height):
    row = st.text(st.sampled_from(symbols), min_size=width, max_size=width)
    return draw(st.lists(row, min_size=height, max_size=height).map(tuple))


@st.composite
def _edit(draw, symbols, rows):
    """An edit of `rows`: random cells, or the cells it covers, maybe with one changed."""
    width, height = len(rows[0]), len(rows)
    ew, eh = draw(st.integers(1, width)), draw(st.integers(1, height))
    x, y = draw(st.integers(0, width - ew)), draw(st.integers(0, height - eh))
    if draw(st.booleans()):
        return GridEdit(x, y, draw(_rows(symbols, ew, eh)))
    cells = tuple(row[x : x + ew] for row in rows[y : y + eh])
    if draw(st.booleans()):
        cells = _with_cell(cells, draw(st.integers(0, eh - 1)), draw(st.integers(0, ew - 1)),
                           symbols)
    return GridEdit(x, y, cells)


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
    state = _counts(grid(), p_dist, config)
    # Each step's edits are drawn against the rows committed so far.
    for _ in range(data.draw(st.integers(0, 8))):
        edits = data.draw(st.lists(_edit(symbols, state.rows), max_size=3))
        accept = data.draw(st.booleans())
        child = state.propose(edits)
        assert child.rows == _applied(state.rows, edits)
        assert child.fitness.hex() == _scratch(p_dist, TileGrid(tuple(child.rows)), config).hex()
        assert child.strips == _strips(child.rows, dims)
        if accept:
            state.commit(child)
        assert state.fitness().hex() == _scratch(p_dist, state.grid(), config).hex()
        assert state.counts == extract_distribution(state.grid(), dims).counts
        assert state.strips == _strips(state.rows, dims)


def test_candidate_counts_dims_guard():
    p_dist = extract_distribution(filled("a", 4, 4), FilterDims(2, 2))
    with pytest.raises(LevelDivError, match="training distribution is 2x2 but config expects 3x3"):
        _Side(p_dist, DivergenceConfig(dims=FilterDims(3, 3)), 4)


def test_hill_climb_determinism():
    training = _training_set()
    first, first_trace = _climb(training, _small_config())
    second, second_trace = _climb(training, _small_config())
    assert first.best == second.best
    assert first.best_fitness == second.best_fitness
    assert first_trace == second_trace
    other = hill_climb(training, _small_config(seed=10), lambda fitness: None)
    assert other.best != first.best


def test_hill_climb_trace_invariants():
    training = _training_set()
    for mutation in (Conv(), Flip(rate=3.0)):
        result, trace = _climb(training, _small_config(mutation=mutation))
        assert len(trace) == 121  # initial entry plus one per evaluation
        assert all(isinstance(value, float) for value in trace)
        # The accepted parent is always the best candidate seen so far.
        assert result.best_fitness == max(trace)
        assert result.elapsed > 0.0


def test_hill_climb_sink_receives_the_trace():
    training = _training_set()
    for mutation in (Conv(), Flip(rate=3.0)):
        config = _small_config(mutation=mutation)
        first, received = _climb(training, config)
        again, received_again = _climb(training, config)
        assert len(received) == config.budget + 1
        assert [v.hex() for v in received] == [v.hex() for v in received_again]
        assert first.best == again.best
        assert first.best_fitness.hex() == again.best_fitness.hex()


def test_hill_climb_memory_does_not_grow_with_budget_under_a_sink():
    training = _training_set()

    def peak(budget):
        config = _small_config(target_width=12, target_height=8, budget=budget)
        tracemalloc.start()
        try:
            hill_climb(training, config, sink=lambda fitness: None)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # A trace kept in a list would add about 700 KiB over these 18,000 evaluations.
    assert peak(20_000) - peak(2_000) < 64 * 1024


def test_hill_climb_target_cell_cap(monkeypatch):
    # No grid is ever made: reaching random_init raises instead.
    class Reached(Exception):
        pass

    def refuse(*args):
        raise Reached

    monkeypatch.setattr(evolve, "random_init", refuse)
    training = _training_set()  # 4 rows high
    at_cap = MAX_TARGET_CELLS // 4
    for width, height in ((MAX_TARGET_CELLS, 1), (at_cap, None), (1, MAX_TARGET_CELLS)):
        config = _small_config(target_width=width, target_height=height)
        with pytest.raises(Reached):
            hill_climb(training, config, lambda fitness: None)
    for width, height in ((MAX_TARGET_CELLS + 1, 1), (at_cap + 1, None), (10**9, 10**9)):
        config = _small_config(target_width=width, target_height=height)
        with pytest.raises(ValueError, match=f"more than {MAX_TARGET_CELLS} cells"):
            hill_climb(training, config, lambda fitness: None)


def test_hill_climb_result_matches_scratch_recompute():
    training = _training_set()
    for mutation in (Conv(), Flip(rate=3.0)):
        config = _small_config(mutation=mutation)
        result = hill_climb(training, config, lambda fitness: None)
        dims = config.divergence.dims
        p_dist = merge_distributions(
            [extract_distribution(g, dims) for g in training.grids]
        )
        q_dist = extract_distribution(result.best, dims)
        scratch = fitness(p_dist, q_dist, config.divergence)
        assert result.best_fitness == scratch.fitness


def test_hill_climb_target_dims():
    training = _training_set()
    config = _small_config(target_width=15, target_height=9)
    result = hill_climb(training, config, lambda fitness: None)
    assert result.best.width == 15
    assert result.best.height == 9
    # default height comes from the first training level
    result = hill_climb(training, _small_config(target_height=None, budget=5), lambda fitness: None)
    assert result.best.height == training.grids[0].height


def test_hill_climb_alphabet_closure():
    training = _training_set()
    result = hill_climb(training, _small_config(), lambda fitness: None)
    assert set(result.best.cells) <= set(training.symbols)


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
    result, trace = _climb(training, config)
    assert result.best == filled("-", 6, 6)
    assert result.best_fitness == 0.0
    assert all(value == 0.0 for value in trace)


def test_hill_climb_training_must_fit_filter():
    training = LevelSet.from_grids([("dot", TileGrid(("ab", "ba")))])
    config = EvolutionConfig(
        divergence=DivergenceConfig(dims=FilterDims(3, 3)),
        target_width=8,
        target_height=8,
        budget=5,
    )
    with pytest.raises(LevelDivError, match="level dot: filter 3x3 does not fit in 2x2 grid"):
        hill_climb(training, config, lambda fitness: None)


def test_hill_climb_target_must_fit_filter():
    # The 4x4 filter against a 10x4 training level.
    training = _training_set()
    for width, height in ((3, 6), (10, 3)):
        config = EvolutionConfig(target_width=width, target_height=height, budget=5)
        with pytest.raises(LevelDivError, match=f"does not fit in {width}x{height} grid"):
            hill_climb(training, config, lambda fitness: None)
    for width in (0, -1):
        config = EvolutionConfig(target_width=width, budget=5)
        with pytest.raises(LevelDivError, match="grid rows must not be empty"):
            hill_climb(training, config, lambda fitness: None)


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
    # Width 2 equals the filter's, so each state holds a single strip.
    for levels, width, weight in ((training, 4, 0.5), (training, 2, 0.5), (smb, 20, 0.3)):
        config = DivergenceConfig(dims=FilterDims(2, 2), weight=weight)
        p_dist = merge_distributions(extract_distribution(g, config.dims) for g in levels.grids)
        expected = [
            (offset, _scratch(p_dist, grid.crop(offset, 0, width, grid.height), config).hex())
            for grid in levels.grids
            for offset in range(grid.width - width + 1)
        ]
        rows = snippet_fitness(levels, width, config)
        assert [(offset, value.hex()) for offset, value in rows] == expected


def test_snippet_fitness_shares_one_side_per_level_height(sides_built):
    # Two levels 14 high around one cut to 10 rows: two heights, two sides.
    levels = LevelSet.from_grids([
        ("mario-1-1", load_smb_level("mario-1-1")),
        ("short", load_smb_level("mario-1-2").crop(0, 4, 60, 10)),
        ("mario-4-2", load_smb_level("mario-4-2")),
    ])
    width = 24
    for dims in (FilterDims(2, 2), FilterDims(4, 4)):
        config = DivergenceConfig(dims=dims, weight=0.3)
        p_dist = merge_distributions(extract_distribution(g, dims) for g in levels.grids)
        sides_built.clear()
        rows = snippet_fitness(levels, width, config)
        assert sides_built == [(dims, window_count(width, h, dims)) for h in (14, 10)]
        expected = [
            (offset, _scratch(p_dist, grid.crop(offset, 0, width, grid.height), config).hex())
            for grid in levels.grids
            for offset in range(grid.width - width + 1)
        ]
        assert [(offset, value.hex()) for offset, value in rows] == expected


def test_hill_climb_builds_one_side(sides_built):
    config = _small_config()
    _climb(_training_set(), config)
    dims = config.divergence.dims
    assert sides_built == [(dims, window_count(config.target_width, config.target_height, dims))]


def test_snippet_fitness_errors(mario_1_1):
    training = LevelSet.from_grids([("mario-1-1", mario_1_1)])
    with pytest.raises(LevelDivError, match="snippet width 300 exceeds level mario-1-1 width 229"):
        snippet_fitness(training, 300, DivergenceConfig(dims=FilterDims(4, 4)))
    with pytest.raises(LevelDivError, match="snippet width 3 is narrower than the 4x4 filter"):
        snippet_fitness(training, 3, DivergenceConfig(dims=FilterDims(4, 4)))


def test_incremental_equals_scratch_under_mutation_stream():
    # shorter version of the full acceptance check, mixed flip and conv edits
    training = LevelSet.from_grids([("mario-1-1", load_smb_level("mario-1-1"))])
    dims = FilterDims(4, 4)
    config = DivergenceConfig(dims=dims)
    p_dist = extract_distribution(training.grids[0], dims)
    rng = random.Random(55)
    state = _counts(random_init(training.symbols, 30, 14, rng), p_dist, config)
    for step in range(100):
        mutation = Flip(3.0) if step % 2 else Conv()
        child = state.propose(mutation.edits(state.rows, training, dims, rng))
        state.commit(child)
        scratch_state = _counts(state.grid(), p_dist, config)
        assert child.fitness == scratch_state.fitness() == state.fitness()


def test_random_init_frequencies_near_uniform():
    # 10,000 cells over 11 symbols: each count within 5 binomial sigma of n/11
    symbols = tuple("-<>?EQSX[]o")
    grid = random_init(symbols, 100, 100, random.Random(3))
    joined = "".join(grid.rows)
    n = 100 * 100
    p = 1.0 / len(symbols)
    sigma = (n * p * (1.0 - p)) ** 0.5
    for symbol in symbols:
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
    symbols = ("a", "b", "-")
    dims = FilterDims(2, 2)
    state = _state(random_init(symbols, 9, 5, rng), _training_set(), dims)
    replacement = random_init(symbols, 9, 5, rng)
    state.commit(state.propose([GridEdit(0, 0, replacement.rows)]))
    fresh = extract_distribution(replacement, dims)
    assert state.counts == fresh.counts
    assert state.side.total == fresh.total


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


def _wide_tile_level(width, height, seed):
    """A random level over WIDE_TILES."""
    rng = random.Random(seed)
    return TileGrid(tuple("".join(rng.choice(WIDE_TILES) for _ in range(width))
                          for _ in range(height)))


def test_climb_and_snippets_over_non_ascii_tiles():
    # Width 70 makes the snippet slide's entering strips span three blocks.
    level = _wide_tile_level(70, 6, 29)
    training = LevelSet.from_grids([("wide", level)])
    for dims in (FilterDims(2, 2), FilterDims(3, 2)):
        config = DivergenceConfig(dims=dims, weight=0.3)
        p_dist = extract_distribution(level, dims)
        for mutation in (Conv(), Flip(rate=3.0)):
            climb = EvolutionConfig(divergence=config, target_width=12, budget=150,
                                    mutation=mutation, seed=5)
            result, _ = _climb(training, climb)
            assert result.best_fitness.hex() == _scratch(p_dist, result.best, config).hex()
        rows = snippet_fitness(training, 5, config)
        assert [offset for offset, _ in rows] == list(range(66))
        for offset, value in rows:
            snippet = level.crop(offset, 0, 5, level.height)
            assert value.hex() == _scratch(p_dist, snippet, config).hex()
        # Each child's strips and fitness, against a rebuild and a recount.
        state = _counts(_wide_tile_level(9, 4, 31), p_dist, config)
        rng = random.Random(37)
        for _ in range(40):
            child = state.propose(Conv().edits(state.rows, training, dims, rng))
            assert child.strips == _strips(child.rows, dims)
            assert child.fitness.hex() == _scratch(p_dist, TileGrid(tuple(child.rows)), config).hex()
            state.commit(child)
