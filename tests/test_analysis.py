import json
import math
import random
import statistics

import pytest

from leveldiv import (
    Conv,
    Dendrogram,
    DendrogramMerge,
    DistanceMatrix,
    DivergenceConfig,
    EvolutionConfig,
    FilterDims,
    LevelDivError,
    LevelSet,
    TileGrid,
    average_linkage,
    compare_sets,
    contributions,
    cut_dendrogram,
    extract_distribution,
    fitness,
    hill_climb,
    kl_div,
    merge_distributions,
    pairwise_matrix,
    serialize_level,
)
from bundled import SMB_LEVEL_TYPES, load_smb_corpus, load_smb_level
from leveldiv.analysis import _newick_label
from leveldiv.divergence import weighted_divergence
from leveldiv.evolve import random_init
from leveldiv.patterns import window_count
from conftest import filled
from oracles import (
    mp_kl,
    random_rows,
    random_symmetric_matrix,
    scipy_average_linkage,
    scipy_cut_partition,
)


def _matrix(values, names=None):
    n = len(values)
    names = names or tuple(f"L{i}" for i in range(n))
    return DistanceMatrix(
        tuple(names),
        tuple(tuple(float(v) for v in row) for row in values),
    )


def _grid_set():
    grids = [
        ("a", TileGrid(("aaaa", "aaaa", "aaaa"))),
        ("b", TileGrid(("abab", "baba", "abab"))),
        ("c", TileGrid(("bbbb", "bbbb", "bbbb"))),
    ]
    return LevelSet.from_grids(grids)


def test_pairwise_matrix_entries_are_weighted_divergences():
    levels = _grid_set()
    config = DivergenceConfig(dims=FilterDims(2, 2), weight=0.3)
    matrix = pairwise_matrix(levels, config)
    assert matrix.names == ("a", "b", "c")
    dists = [extract_distribution(g, config.dims) for g in levels.grids]
    for i in range(3):
        assert matrix.values[i][i] == 0.0
        for j in range(3):
            if i == j:
                continue
            expected = 0.3 * kl_div(dists[i], dists[j], 1e-5) + 0.7 * kl_div(
                dists[j], dists[i], 1e-5
            )
            assert matrix.values[i][j] == expected


def test_pairwise_matrix_needs_two_levels():
    levels = LevelSet.from_grids([("solo", TileGrid(("ab", "ba")))])
    with pytest.raises(LevelDivError, match="pairwise matrix needs at least 2 levels"):
        pairwise_matrix(levels, DivergenceConfig(dims=FilterDims(2, 2)))


def test_pairwise_matrix_names_offending_level():
    levels = LevelSet.from_grids(
        [("big", filled("a", 8, 8)), ("small", TileGrid(("ab", "ba")))]
    )
    with pytest.raises(LevelDivError, match="filter 4x4 does not fit in 2x2 grid") as err:
        pairwise_matrix(levels, DivergenceConfig(dims=FilterDims(4, 4)))
    assert "small" in str(err.value)


def _four_levels():
    return [(f"l{i}", TileGrid(("ab-X"[i:] + "ab-X"[:i],) * 3)) for i in range(4)]


def test_pairwise_matrix_frees_each_level_before_the_next(counts_alive):
    matrix = pairwise_matrix(
        LevelSet.from_grids(_four_levels()), DivergenceConfig(dims=FilterDims(2, 2))
    )
    assert len(matrix.values) == 4
    assert counts_alive == [0, 0, 0, 0]


def test_compare_sets_frees_each_level_before_the_next(tmp_path, counts_alive):
    _write_levels(tmp_path / "gen", _four_levels())
    table = compare_sets(
        LevelSet.from_grids(_four_levels()), [tmp_path / "gen"], [FilterDims(2, 2)], [0.5]
    )
    assert table.cells[0][0].count == 4
    # The four training levels are merged first, then the four generated ones scored.
    assert counts_alive == [0] * 8


def test_average_linkage_averages_transposed_entries():
    # symmetrized: d(0,1) = 1.5, d(0,2) = 3.0, d(1,2) = 7.0
    values = [[0.0, 2.0, 4.0], [1.0, 0.0, 8.0], [2.0, 6.0, 0.0]]
    merges = average_linkage(_matrix(values)).merges
    assert (merges[0].cluster_a, merges[0].cluster_b) == (0, 1)
    assert merges[0].height == (values[0][1] + values[1][0]) / 2 == 1.5
    # the merged pair's mean distance to leaf 2: (3.0 + 7.0) / 2
    assert (merges[1].cluster_a, merges[1].cluster_b) == (2, 3)
    assert merges[1].height == ((4.0 + 2.0) / 2 + (8.0 + 6.0) / 2) / 2 == 5.0


def test_average_linkage_hand_case():
    # two tight pairs far apart: merge heights are fully determined
    values = [
        [0.0, 1.0, 10.0, 12.0],
        [1.0, 0.0, 11.0, 9.0],
        [10.0, 11.0, 0.0, 2.0],
        [12.0, 9.0, 2.0, 0.0],
    ]
    dendro = average_linkage(_matrix(values))
    merges = dendro.merges
    assert (merges[0].cluster_a, merges[0].cluster_b, merges[0].height) == (0, 1, 1.0)
    assert (merges[1].cluster_a, merges[1].cluster_b, merges[1].height) == (2, 3, 2.0)
    assert merges[2].cluster_a == 4 and merges[2].cluster_b == 5
    assert merges[2].height == (10.0 + 12.0 + 11.0 + 9.0) / 4.0
    assert [m["id"] for m in json.loads(dendro.to_json())["merges"]] == [4, 5, 6]


def test_average_linkage_tie_breaks_by_first_pair():
    # all distances equal: the first pair in index order must merge first
    values = [[0.0 if i == j else 3.0 for j in range(4)] for i in range(4)]
    dendro = average_linkage(_matrix(values))
    first = dendro.merges[0]
    assert (first.cluster_a, first.cluster_b) == (0, 1)


def test_average_linkage_matches_scipy():
    rng = random.Random(71)
    for trial in range(15):
        n = rng.randint(3, 12)
        values = random_symmetric_matrix(rng, n)
        dendro = average_linkage(_matrix(values))
        linkage = scipy_average_linkage(values)
        ours = sorted(m.height for m in dendro.merges)
        theirs = sorted(float(h) for h in linkage[:, 2])
        assert ours == pytest.approx(theirs, rel=1e-12, abs=1e-12)


def test_cut_matches_scipy_partitions():
    rng = random.Random(73)
    for trial in range(15):
        n = rng.randint(3, 12)
        values = random_symmetric_matrix(rng, n)
        dendro = average_linkage(_matrix(values))
        for k in range(1, n + 1):
            labels = cut_dendrogram(dendro, k)
            groups = {}
            for leaf, label in enumerate(labels):
                groups.setdefault(label, set()).add(leaf)
            ours = {frozenset(g) for g in groups.values()}
            assert ours == scipy_cut_partition(values, k)


def test_cut_label_conventions():
    values = [
        [0.0, 1.0, 10.0, 12.0],
        [1.0, 0.0, 11.0, 9.0],
        [10.0, 11.0, 0.0, 2.0],
        [12.0, 9.0, 2.0, 0.0],
    ]
    dendro = average_linkage(_matrix(values))
    assert cut_dendrogram(dendro, 1) == [0, 0, 0, 0]
    assert cut_dendrogram(dendro, 2) == [0, 0, 1, 1]
    assert cut_dendrogram(dendro, 4) == [0, 1, 2, 3]


def test_cut_refines_coarser_cut():
    rng = random.Random(79)
    for _ in range(10):
        n = rng.randint(4, 10)
        dendro = average_linkage(_matrix(random_symmetric_matrix(rng, n)))
        for k in range(2, n + 1):
            fine = cut_dendrogram(dendro, k)
            coarse = cut_dendrogram(dendro, k - 1)
            parent_of = {}
            for f, c in zip(fine, coarse):
                assert parent_of.setdefault(f, c) == c


def test_cut_validation():
    dendro = average_linkage(_matrix([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(LevelDivError, match="cannot cut 2 leaves into 0 clusters"):
        cut_dendrogram(dendro, 0)
    with pytest.raises(LevelDivError, match="cannot cut 2 leaves into 3 clusters"):
        cut_dendrogram(dendro, 3)


def test_negative_distance_rejected():
    values = [[0.0, -1.0], [-1.0, 0.0]]
    with pytest.raises(LevelDivError, match="symmetrized distance -1.0 between .* is negative"):
        average_linkage(_matrix(values))
    # tiny negative rounding noise is tolerated
    noise = [[0.0, -1e-12], [-1e-12, 0.0]]
    average_linkage(_matrix(noise))


def test_clustering_needs_two_leaves():
    matrix = DistanceMatrix(("solo",), ((0.0,),))
    with pytest.raises(LevelDivError, match="clustering needs at least 2 leaves"):
        average_linkage(matrix)


def test_newick_structure():
    values = [
        [0.0, 1.0, 10.0, 12.0],
        [1.0, 0.0, 11.0, 9.0],
        [10.0, 11.0, 0.0, 2.0],
        [12.0, 9.0, 2.0, 0.0],
    ]
    dendro = average_linkage(_matrix(values, names=("w", "x", "y", "z")))
    tree = dendro.newick()
    assert tree == "((w:0.5,x:0.5):4.75,(y:1,z:1):4.25);"


def test_newick_quotes_labels():
    dendro = Dendrogram(
        ("lvl (a,b)", "it's", "x_1"),
        (DendrogramMerge(0, 1, 2.0), DendrogramMerge(3, 2, 4.0)),
    )
    assert dendro.newick() == "(('lvl (a,b)':1,'it''s':1):1,x_1:2);"
    assert Dendrogram(("a b",), ()).newick() == "'a b';"


def test_dendrogram_merges_must_join_every_leaf():
    # n leaves join into one tree in n - 1 merges, each of two clusters made
    # before it and not merged yet
    merge = DendrogramMerge(0, 1, 1.0)
    cases = {
        (("a", "b"), ()): "0 merges do not join 2 leaves into one tree",
        ((), ()): "0 merges do not join 0 leaves into one tree",
        (("a", "b"), (merge, merge)): "2 merges do not join 2 leaves into one tree",
        (("a", "b", "c"), (merge, merge)): "2 merges do not join 3 leaves into one tree",
        (("a", "b", "c"), (DendrogramMerge(0, 3, 1.0), merge)): (
            "2 merges do not join 3 leaves into one tree"
        ),
        (("a", "b", "c"), (DendrogramMerge(2, 2, 1.0), merge)): (
            "2 merges do not join 3 leaves into one tree"
        ),
        # every id once, but the first merge takes its own id 3 before it is made
        (("a", "b", "c"), (DendrogramMerge(3, 2, 1.0), merge)): (
            "2 merges do not join 3 leaves into one tree"
        ),
    }
    for (leaves, merges), message in cases.items():
        with pytest.raises(LevelDivError) as err:
            Dendrogram(leaves, merges)
        assert str(err.value) == message
    with pytest.raises(LevelDivError, match="^0 merges do not join 2 leaves into one tree$"):
        Dendrogram(("a", "b"), (merge,))._replace(merges=())
    # the same merges in an order that makes each cluster first are a tree
    Dendrogram(("a", "b", "c"), (merge, DendrogramMerge(3, 2, 1.0)))
    Dendrogram(("a", "b", "c"), (DendrogramMerge(1, 2, 1.0), DendrogramMerge(0, 3, 1.0)))


def test_dendrogram_json():
    dendro = Dendrogram(
        ("a", "b"), (DendrogramMerge(0, 1, 2.5),)
    )
    data = json.loads(dendro.to_json())
    assert data["leaves"] == ["a", "b"]
    assert data["merges"] == [{"a": 0, "b": 1, "height": 2.5, "id": 2}]
    assert data["newick"] == "(a:1.25,b:1.25);"


def test_newick_renders_a_chain_deeper_than_the_recursion_limit():
    # each merge adds one leaf to the cluster before it: 1,099 nested levels
    n = 1100
    merges = [DendrogramMerge(0, 1, 1.0)]
    for leaf in range(2, n):
        merges.append(DendrogramMerge(n + leaf - 2, leaf, float(leaf)))
    dendro = Dendrogram(tuple(f"l{i}" for i in range(n)), tuple(merges))
    tree = dendro.newick()
    assert tree.startswith("(" * (n - 1) + "l0:0.5,l1:0.5):0.5,l2:1):0.5,l3:1.5)")
    assert tree.endswith("):0.5,l1099:549.5);")
    assert tree.count("(") == tree.count(")") == n - 1
    assert json.loads(dendro.to_json())["newick"] == tree


def _reference_newick(dendro):
    """Newick by recursion from the root; merge k makes node n + k."""
    n = len(dendro.leaves)
    merges = {n + k: m for k, m in enumerate(dendro.merges)}

    def half(node):
        return merges[node].height / 2.0 if node >= n else 0.0

    def text(node):
        if node < n:
            return _newick_label(dendro.leaves[node])
        m = merges[node]
        return "(" + ",".join(
            f"{text(child)}:{half(node) - half(child):.12g}" for child in (m.cluster_a, m.cluster_b)
        ) + ")"

    return text(n + len(dendro.merges) - 1) + ";"


def test_newick_matches_a_recursive_reference():
    rng = random.Random(83)
    for n in [*range(2, 12), *(rng.randint(12, 40) for _ in range(10))]:
        values = [[0.0 if i == j else rng.random() for j in range(n)] for i in range(n)]
        dendro = average_linkage(_matrix(values, names=[f"l {i}" for i in range(n)]))
        assert dendro.newick() == _reference_newick(dendro), n


def test_smb_corpus_clusters_by_type_at_default_settings():
    levels = load_smb_corpus()
    matrix = pairwise_matrix(levels, DivergenceConfig(dims=FilterDims(4, 4)))
    labels = cut_dendrogram(average_linkage(matrix), 3)
    by_label = {}
    for name, label in zip(levels.names, labels):
        by_label.setdefault(label, set()).add(SMB_LEVEL_TYPES[name])
    assert len(by_label) == 3
    assert all(len(types) == 1 for types in by_label.values())


def _write_levels(directory, grids):
    directory.mkdir(parents=True, exist_ok=True)
    for name, grid in grids:
        (directory / f"{name}.txt").write_text(serialize_level(grid) + "\n")


def test_compare_sets_singleton_matches_direct_fitness(tmp_path):
    training = _grid_set()
    generated = TileGrid(("abba", "baab", "abba"))
    _write_levels(tmp_path / "gen", [("only", generated)])
    dims = FilterDims(2, 2)
    table = compare_sets(training, [tmp_path / "gen"], [dims], [0.3])

    p_dist = merge_distributions(
        [extract_distribution(g, dims) for g in training.grids]
    )
    q_dist = extract_distribution(generated, dims)
    direct = fitness(p_dist, q_dist, DivergenceConfig(dims=dims, weight=0.3))
    cell = table.cells[0][0]
    assert cell.count == 1
    assert cell.std == 0.0
    assert cell.mean == -direct.fitness
    assert table.rows == ("gen",)
    assert table.columns == ((dims, 0.3),)
    assert table.skipped == (0,)


def test_compare_sets_shares_one_side_per_filter_and_window_total(tmp_path, sides_built):
    training = LevelSet.from_grids(
        (name, load_smb_level(name)) for name in ("mario-1-1", "mario-2-1")
    )
    # One level per directory, cut 30 or 24 wide from other levels and from the training set.
    cuts = [("mario-1-2", 0, 30), ("mario-1-3", 10, 24), ("mario-3-1", 40, 30),
            ("mario-4-2", 5, 24), ("mario-1-1", 60, 30)]
    levels, dirs = [], []
    for i, (name, x, width) in enumerate(cuts):
        grid = load_smb_level(name).crop(x, 0, width, 14)
        _write_levels(tmp_path / f"gen{i}", [(name, grid)])
        levels.append(grid)
        dirs.append(tmp_path / f"gen{i}")
    filters, weights = [FilterDims(2, 2), FilterDims(4, 4)], [0.0, 0.3, 1.0]
    table = compare_sets(training, dirs, filters, weights)
    # Built on first use: both filters of the first directory, then of the second.
    assert sides_built == [(dims, window_count(width, 14, dims))
                           for width in (30, 24) for dims in filters]
    p_dists = {
        dims: merge_distributions(extract_distribution(g, dims) for g in training.grids)
        for dims in filters
    }
    for grid, row in zip(levels, table.cells):
        for (dims, weight), cell in zip(table.columns, row):
            q_dist = extract_distribution(grid, dims)
            direct = fitness(p_dists[dims], q_dist, DivergenceConfig(dims=dims, weight=weight))
            assert cell.count == 1
            assert cell.mean.hex() == (-direct.fitness).hex()


def test_compare_sets_mean_and_std(tmp_path):
    training = _grid_set()
    g1 = TileGrid(("abba", "baab", "abba"))
    g2 = TileGrid(("aabb", "bbaa", "aabb"))
    _write_levels(tmp_path / "gen", [("one", g1), ("two", g2)])
    dims = FilterDims(2, 2)
    table = compare_sets(training, [tmp_path / "gen"], [dims], [0.5])

    p_dist = merge_distributions(
        [extract_distribution(g, dims) for g in training.grids]
    )
    config = DivergenceConfig(dims=dims, weight=0.5)
    values = [
        -fitness(p_dist, extract_distribution(g, dims), config).fitness
        for g in (g1, g2)
    ]
    cell = table.cells[0][0]
    mean = sum(values) / 2.0
    assert cell.mean == pytest.approx(mean, rel=1e-15)
    assert cell.std == pytest.approx(
        math.sqrt(sum((v - mean) ** 2 for v in values) / 2.0), rel=1e-12
    )
    assert cell.count == 2


def test_compare_sets_skips_unparseable_files(tmp_path):
    training = _grid_set()
    gen = tmp_path / "gen"
    _write_levels(gen, [("ok", TileGrid(("abab", "baba", "abab")))])
    (gen / "broken.txt").write_text("ab\nabc\n")
    (gen / "latin1.txt").write_bytes(b"ab\nb\xe9\n")
    # parses, but is smaller than the 3x3 filter
    (gen / "small.txt").write_text("ab\nba\n")
    table = compare_sets(training, [gen], [FilterDims(2, 2), FilterDims(3, 3)], [0.5])
    assert table.skipped == (3,)
    assert table.cells[0][0].count == 1


def test_compare_sets_empty_directory_fails(tmp_path):
    training = _grid_set()
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(LevelDivError, match="no usable levels in directory"):
        compare_sets(training, [empty], [FilterDims(2, 2)], [0.5])


def test_compare_sets_column_grid(tmp_path):
    training = _grid_set()
    _write_levels(tmp_path / "gen", [("only", TileGrid(("abba", "baab", "abba")))])
    filters = [FilterDims(1, 1), FilterDims(2, 2)]
    weights = [0.0, 1.0]
    table = compare_sets(training, [tmp_path / "gen"], filters, weights)
    assert table.columns == (
        (filters[0], 0.0),
        (filters[0], 1.0),
        (filters[1], 0.0),
        (filters[1], 1.0),
    )


def test_compare_sets_argument_validation(tmp_path):
    training = _grid_set()
    with pytest.raises(LevelDivError, match="no generated-level directories given"):
        compare_sets(training, [], [FilterDims(2, 2)], [0.5])
    _write_levels(tmp_path / "gen", [("only", TileGrid(("ab", "ba")))])
    with pytest.raises(LevelDivError, match="need at least one filter and one weight"):
        compare_sets(training, [tmp_path / "gen"], [], [0.5])
    with pytest.raises(LevelDivError, match="need at least one filter and one weight"):
        compare_sets(training, [tmp_path / "gen"], [FilterDims(2, 2)], [])
    with pytest.raises(ValueError):
        compare_sets(training, [tmp_path / "gen"], [FilterDims(2, 2)], [1.5])
    with pytest.raises(ValueError):
        compare_sets(training, [tmp_path / "gen"], [FilterDims(2, 2)], [0.5], epsilon=2.0)
    # two columns with one header name, whether equal or equal at :g precision
    with pytest.raises(ValueError, match="duplicate compare column 2x2_0.5"):
        compare_sets(training, [tmp_path / "gen"], [FilterDims(2, 2)] * 2, [0.5])
    with pytest.raises(ValueError, match="duplicate compare column 2x2_0.5"):
        compare_sets(training, [tmp_path / "gen"], [FilterDims(2, 2)], [0.5, 0.5000001])


def _per_pattern_kl(p, q, epsilon=1e-5):
    """kl(p, q) as the correctly rounded sum of its per-pattern contributions."""
    return math.fsum(entry.summand for entry in contributions(p, q, epsilon))


def test_directions_match_a_per_pattern_reference(tmp_path):
    # At w = 0.5 the matrix is symmetric, where a swap of directions would not show.
    corpus = load_smb_corpus()
    dims = FilterDims(2, 2)
    levels = LevelSet.from_grids(corpus.levels[:4])
    dists = [extract_distribution(g, dims) for g in levels.grids]
    matrix = pairwise_matrix(levels, DivergenceConfig(dims=dims, weight=0.3))
    for i, p in enumerate(dists):
        for j, q in enumerate(dists):
            if i != j:
                want = weighted_divergence(_per_pattern_kl(p, q), _per_pattern_kl(q, p), 0.3)
                assert matrix.values[i][j].hex() == want.hex(), (i, j)
    training = LevelSet.from_grids(corpus.levels[4:7])
    generated = corpus.levels[7:11]
    _write_levels(tmp_path / "gen", generated)
    table = compare_sets(training, [tmp_path / "gen"], [dims], [0.0, 1.0])
    p = merge_distributions([extract_distribution(g, dims) for g in training.grids])
    qs = [extract_distribution(g, dims) for _, g in generated]
    for cell, weight in zip(table.cells[0], (0.0, 1.0)):
        values = [
            weighted_divergence(_per_pattern_kl(p, q), _per_pattern_kl(q, p), weight) for q in qs
        ]
        assert cell.mean.hex() == statistics.fmean(values).hex()
        assert cell.std.hex() == statistics.pstdev(values).hex()
        assert cell.count == len(qs)


def test_pairwise_matrix_identical_levels_are_zero():
    g = TileGrid(("abab", "baba", "abab"))
    levels = LevelSet.from_grids([("one", g), ("two", g)])
    matrix = pairwise_matrix(levels, DivergenceConfig(dims=FilterDims(2, 2)))
    assert matrix.values == ((0.0, 0.0), (0.0, 0.0))


def test_pairwise_matrix_matches_extended_precision_oracle():
    import mpmath

    mpmath.mp.dps = 50
    rng = random.Random(17)
    grids = []
    while len(grids) < 3:
        rows = random_rows(rng, max_side=8, max_symbols=3)
        if len(rows) >= 2 and len(rows[0]) >= 2:
            grids.append(TileGrid(tuple(rows)))
    levels = LevelSet.from_grids([(f"g{i}", g) for i, g in enumerate(grids)])
    for weight in (0.5, 0.3):
        config = DivergenceConfig(dims=FilterDims(2, 2), weight=weight)
        matrix = pairwise_matrix(levels, config)
        dists = [extract_distribution(g, config.dims) for g in grids]
        w = mpmath.mpf(weight)
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                forward = mp_kl(
                    dists[i].counts, dists[i].total,
                    dists[j].counts, dists[j].total, 1e-5,
                )
                backward = mp_kl(
                    dists[j].counts, dists[j].total,
                    dists[i].counts, dists[i].total, 1e-5,
                )
                expected = float(w * forward + (1 - w) * backward)
                assert abs(matrix.values[i][j] - expected) < 1e-9


def test_average_linkage_two_leaves():
    dendro = average_linkage(_matrix([[0.0, 3.5], [3.5, 0.0]]))
    assert len(dendro.merges) == 1
    merge = dendro.merges[0]
    assert (merge.cluster_a, merge.cluster_b) == (0, 1)
    assert merge.height == 3.5
    assert json.loads(dendro.to_json())["merges"][0]["id"] == 2


def test_compare_sets_training_copies_are_zero(tmp_path):
    g = TileGrid(("abab", "baba", "abab", "bbaa"))
    training = LevelSet.from_grids([("src", g)])
    copies = tmp_path / "copies"
    copies.mkdir()
    for i in range(3):
        (copies / f"copy-{i}.txt").write_text(
            serialize_level(g) + "\n", encoding="utf-8"
        )
    table = compare_sets(
        training, [copies], [FilterDims(1, 1), FilterDims(2, 2)], [0.0, 0.5, 1.0]
    )
    for row in table.cells:
        for cell in row:
            assert cell.mean == 0.0
            assert cell.std == 0.0
            assert cell.count == 3


@pytest.fixture(scope="module")
def generator_dirs(tmp_path_factory):
    """100-level sets: conv-evolved at 4x4 and 2x2, plus uniform-random."""
    training = LevelSet.from_grids([("mario-1-1", load_smb_level("mario-1-1"))])
    root = tmp_path_factory.mktemp("generated")

    def evolve_set(dims, subdir):
        path = root / subdir
        path.mkdir()
        for seed in range(100):
            config = EvolutionConfig(
                divergence=DivergenceConfig(dims=dims),
                target_width=30,
                target_height=14,
                budget=2_000,
                mutation=Conv(),
                seed=seed,
            )
            best = hill_climb(training, config, lambda fitness: None).best
            (path / f"level-{seed:03d}.txt").write_text(
                serialize_level(best) + "\n", encoding="utf-8"
            )
        return path

    conv4 = evolve_set(FilterDims(4, 4), "conv4")
    conv2 = evolve_set(FilterDims(2, 2), "conv2")
    rng = random.Random(7)
    random_dir = root / "random"
    random_dir.mkdir()
    for i in range(100):
        grid = random_init(training.symbols, 30, 14, rng)
        (random_dir / f"level-{i:03d}.txt").write_text(
            serialize_level(grid) + "\n", encoding="utf-8"
        )
    return training, conv4, conv2, random_dir


def test_compare_sets_evolved_beats_random_in_every_column(generator_dirs):
    training, conv4, conv2, random_dir = generator_dirs
    filters = [FilterDims(2, 2), FilterDims(3, 3), FilterDims(4, 4)]
    table = compare_sets(training, [conv4, conv2, random_dir], filters, [0.5])
    by_row = dict(zip(table.rows, table.cells))
    for j in range(len(table.columns)):
        assert by_row["conv4"][j].count == 100
        assert by_row["conv4"][j].mean < by_row["random"][j].mean
        assert by_row["conv2"][j].mean < by_row["random"][j].mean


def test_compare_sets_filter_size_specialization(generator_dirs):
    # a set evolved under one filter size scores best at that size but
    # falls behind the larger-filter set on larger-filter columns
    training, conv4, conv2, _ = generator_dirs
    table = compare_sets(
        training, [conv4, conv2], [FilterDims(2, 2), FilterDims(4, 4)], [0.5]
    )
    by_row = dict(zip(table.rows, table.cells))
    col = {dims: j for j, (dims, _) in enumerate(table.columns)}
    two, four = col[FilterDims(2, 2)], col[FilterDims(4, 4)]
    assert by_row["conv2"][two].mean < by_row["conv4"][two].mean
    assert by_row["conv2"][four].mean > by_row["conv4"][four].mean
