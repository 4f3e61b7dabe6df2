import random

import pytest

from leveldiv import (
    FilterDims,
    LevelDivError,
    Pattern,
    TileGrid,
    extract_distribution,
    merge_distributions,
)
from leveldiv.patterns import window_count
from oracles import naive_window_counts, random_rows


def test_filter_dims_parse():
    assert FilterDims.parse("4x4") == FilterDims(4, 4)
    assert FilterDims.parse("2X3") == FilterDims(2, 3)
    for bad in ("4", "4x", "x4", "4x4x4", "axb", "0x2", "-1x2"):
        with pytest.raises(ValueError):
            FilterDims.parse(bad)


def test_filter_dims_str_roundtrip():
    dims = FilterDims(3, 5)
    assert str(dims) == "3x5"
    assert FilterDims.parse(str(dims)) == dims


def test_window_count_formula():
    assert window_count(229, 14, FilterDims(4, 4)) == 226 * 11
    assert window_count(202, 14, FilterDims(2, 2)) == 201 * 13
    assert window_count(3, 3, FilterDims(3, 3)) == 1
    assert window_count(5, 2, FilterDims(1, 1)) == 10
    with pytest.raises(LevelDivError, match="filter 4x1 does not fit in 3x3 grid"):
        window_count(3, 3, FilterDims(4, 1))
    with pytest.raises(LevelDivError, match="filter 1x4 does not fit in 3x3 grid"):
        window_count(3, 3, FilterDims(1, 4))


def test_pattern_key():
    pattern = Pattern(FilterDims(2, 2), "ab-X")
    assert pattern.key == "2x2:ab-X"
    with pytest.raises(ValueError):
        Pattern(FilterDims(2, 2), "abc")


def test_extract_tiny_grid_by_hand():
    grid = TileGrid(("aba", "bab"))
    dist = extract_distribution(grid, FilterDims(2, 2))
    assert dist.total == 2
    assert dist.counts == {"abba": 1, "baab": 1}
    ones = extract_distribution(grid, FilterDims(1, 1))
    assert ones.counts == {"a": 3, "b": 3}
    assert ones.total == 6


def test_extract_matches_naive_oracle():
    rng = random.Random(7)
    for _ in range(120):
        rows = random_rows(rng, max_side=10, max_symbols=3)
        grid = TileGrid(tuple(rows))
        # every filter that fits, up to the whole grid
        for fw in range(1, grid.width + 1):
            for fh in range(1, grid.height + 1):
                dims = FilterDims(fw, fh)
                dist = extract_distribution(grid, dims)
                expected = naive_window_counts(rows, fw, fh)
                assert dist.counts == expected
                assert dist.total == sum(expected.values())
                assert dist.total == window_count(grid.width, grid.height, dims)


def test_extract_filter_too_large():
    grid = TileGrid(("ab", "cd"))
    with pytest.raises(LevelDivError, match="filter 3x1 does not fit in 2x2 grid"):
        extract_distribution(grid, FilterDims(3, 1))


def test_translation_consistency():
    # appending a duplicate rightmost column adds one window per band row
    rng = random.Random(11)
    for _ in range(30):
        rows = random_rows(rng, max_side=8, max_symbols=3)
        grid = TileGrid(tuple(rows))
        wider = TileGrid(tuple(row + row[-1] for row in rows))
        for fw in range(1, min(3, grid.width) + 1):
            for fh in range(1, min(3, grid.height) + 1):
                dims = FilterDims(fw, fh)
                a = extract_distribution(grid, dims)
                b = extract_distribution(wider, dims)
                assert b.total - a.total == 1 + grid.height - fh


def test_merge_counts_and_total():
    g1 = TileGrid(("ab", "ba"))
    g2 = TileGrid(("aa", "aa"))
    dims = FilterDims(1, 1)
    merged = merge_distributions([extract_distribution(g, dims) for g in (g1, g2)])
    assert merged.counts == {"a": 6, "b": 2}
    assert merged.total == 8
    assert merged.distinct == 2


def test_merge_commutative_and_associative():
    rng = random.Random(3)
    dists = [
        extract_distribution(TileGrid(tuple(random_rows(rng, 6, 3))), FilterDims(1, 1))
        for _ in range(3)
    ]
    a, b, c = dists
    abc = merge_distributions([a, b, c])
    cba = merge_distributions([c, b, a])
    nested = merge_distributions([merge_distributions([a, b]), c])
    assert abc.counts == cba.counts == nested.counts
    assert abc.total == cba.total == nested.total


def test_merge_errors():
    with pytest.raises(LevelDivError, match="no distributions to merge"):
        merge_distributions([])
    d1 = extract_distribution(TileGrid(("ab",)), FilterDims(1, 1))
    d2 = extract_distribution(TileGrid(("ab",)), FilterDims(2, 1))
    with pytest.raises(LevelDivError, match="cannot merge 2x1 into 1x1 distribution"):
        merge_distributions([d1, d2])


def test_mario_1_1_fixture_counts(mario_1_1):
    two = extract_distribution(mario_1_1, FilterDims(2, 2))
    assert two.distinct == 90
    assert max(two.counts.values()) == 2100
    four = extract_distribution(mario_1_1, FilterDims(4, 4))
    assert four.distinct == 570
    assert max(four.counts.values()) == 1349
