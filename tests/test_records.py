"""The package's public records are immutable named tuples whose checks run on
every construction path, and no code tests a record's truth value."""

import copy
import pickle

import pytest

import leveldiv
from leveldiv import (
    ContributionEntry,
    Conv,
    Dendrogram,
    DendrogramMerge,
    DistanceMatrix,
    DivergenceConfig,
    DivergenceResult,
    EvolutionConfig,
    EvolutionResult,
    FilterDims,
    Flip,
    GridEdit,
    HeatmapCell,
    HeatmapTable,
    LevelDivError,
    LevelSet,
    TileGrid,
    average_linkage,
    compare_sets,
    extract_distribution,
    hill_climb,
    pairwise_matrix,
    snippet_fitness,
)
from leveldiv.cli import dispatch

GRID = TileGrid(("ab", "ba"))
DIMS = FilterDims(2, 2)
LEVELS = LevelSet.from_grids([("g", GRID), ("h", TileGrid(("bb", "aa")))])
MERGE = DendrogramMerge(0, 1, 2.5)

# One valid instance of every public record.
EXAMPLES = {
    "ContributionEntry": ContributionEntry("abba", 0.5, 0.25, 0.125),
    "Conv": Conv(),
    "Dendrogram": Dendrogram(("a", "b"), (MERGE,)),
    "DendrogramMerge": MERGE,
    "DistanceMatrix": DistanceMatrix(("a", "b", "c"), ((0.0, 1.0, 2.0),) * 3),
    "DivergenceConfig": DivergenceConfig(),
    "DivergenceResult": DivergenceResult(0.5, 0.25, -0.375),
    "EvolutionConfig": EvolutionConfig(),
    "EvolutionResult": EvolutionResult(GRID, -0.5, 0.0),
    "FilterDims": DIMS,
    "Flip": Flip(),
    "GridEdit": GridEdit(0, 1, ("a",)),
    "HeatmapCell": HeatmapCell(0.5, 0.0, 3),
    "HeatmapTable": HeatmapTable(("gen",), ((DIMS, 0.5),), ((HeatmapCell(0.5, 0.0, 3),),), (0,)),
    "LevelSet": LEVELS,
    "PatternDistribution": extract_distribution(GRID, FilterDims(1, 1)),
    "TileGrid": GRID,
}

# Each record with a check: one field value it rejects, the error and its message.
BAD = {
    "Dendrogram": ("merges", (), LevelDivError, "0 merges do not join 2 leaves into one tree"),
    "DivergenceConfig": ("weight", 1.5, ValueError, r"weight must be in \[0, 1\], got 1.5"),
    "EvolutionConfig": ("budget", 0, ValueError, "budget must be >= 1, got 0"),
    "FilterDims": ("height", 0, ValueError, "filter dims must be >= 1, got 2x0"),
    "Flip": ("rate", float("nan"), ValueError, "flip rate must be finite and > 0, got nan"),
    "LevelSet": ("levels", (("g", GRID), ("g", GRID)), LevelDivError, "duplicate level names"),
    "TileGrid": ("rows", ("ab", "a"), LevelDivError, "row 1 has length 1, expected 2"),
}


def _records():
    return {
        name: obj for name in leveldiv.__all__
        if isinstance(obj := getattr(leveldiv, name), type) and hasattr(obj, "_fields")
    }


def test_every_public_record_is_a_named_tuple_with_an_example():
    records = _records()
    assert sorted(records) == sorted(EXAMPLES)
    for name, cls in records.items():
        assert issubclass(cls, tuple) and type(EXAMPLES[name]) is cls, name
        assert cls.__name__ == name and cls.__module__.startswith("leveldiv.")
    assert sorted(name for name, cls in records.items() if hasattr(cls, "_check")) == sorted(BAD)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_record_fields_cannot_be_assigned(name):
    record = EXAMPLES[name]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dict either


@pytest.mark.parametrize("name", sorted(BAD))
def test_checked_record_rejects_a_bad_value_however_it_is_built(name):
    good = EXAMPLES[name]
    field, bad, error, message = BAD[name]
    values = good._asdict()
    values[field] = bad
    builds = {
        "positional": lambda: type(good)(*values.values()),
        "keyword": lambda: type(good)(**values),
        "_make": lambda: type(good)._make(values.values()),
        "_replace": lambda: good._replace(**{field: bad}),
    }
    for build in builds.values():
        with pytest.raises(error, match=message):
            build()
    # the same paths build the good record again
    assert type(good)(*good._asdict().values()) == good
    assert type(good)._make(good._asdict().values()) == good
    assert good._replace() == good


def test_level_set_and_distance_matrix_keep_their_sequence_protocol():
    assert list(LEVELS) == [("g", GRID), ("h", TileGrid(("bb", "aa")))]
    assert len(LEVELS) == 2
    matrix = EXAMPLES["DistanceMatrix"]
    assert len(matrix) == 3
    # _replace, _asdict, copies and pickles read the fields, not the pairs or the level count
    assert LEVELS._asdict() == {"levels": LEVELS.levels, "symbols": LEVELS.symbols}
    assert LEVELS._replace(symbols=("a",)).levels == LEVELS.levels
    assert matrix._replace(names=("x", "y", "z")).values == matrix.values
    for record in (LEVELS, matrix):
        assert copy.copy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
        assert type(pickle.loads(pickle.dumps(record))) is type(record)


def test_conv_is_an_empty_falsy_tuple():
    assert Conv() == () and len(Conv()) == 0 and not Conv()
    assert EvolutionConfig().mutation == Conv()
    assert EvolutionConfig().divergence == DivergenceConfig()


def test_no_code_tests_a_records_truth_value(monkeypatch, tmp_path, capsys):
    def refuse(self):
        raise AssertionError(f"truth value of a {type(self).__name__} was tested")

    for cls in _records().values():
        monkeypatch.setattr(cls, "__bool__", refuse, raising=False)
    with pytest.raises(AssertionError):
        bool(Conv())

    config = DivergenceConfig(dims=FilterDims(2, 2))
    for mutation in (Conv(), Flip(rate=2.0)):
        hill_climb(LEVELS, EvolutionConfig(config, 4, 4, budget=30, mutation=mutation),
                   lambda fitness: None)
    snippet_fitness(LEVELS, 2, config)
    dendrogram = average_linkage(pairwise_matrix(LEVELS, config))
    dendrogram.to_json()
    generated = tmp_path / "generated"
    generated.mkdir()
    (generated / "x.txt").write_text("abab\nbaba\n")
    compare_sets(LEVELS, [generated], [FilterDims(2, 2)], [0.5])

    level = tmp_path / "a.txt"
    level.write_text("abab\nbaba\nabba\n")
    other = tmp_path / "b.txt"
    other.write_text("bbaa\naabb\nabab\n")
    out = str(tmp_path / "out")
    commands = [
        ["patterns", str(level), str(other), "--filter", "2x2"],
        ["analyze", str(level), str(other), "--filter", "2x2", "--contributions", out],
        ["evolve", str(level), "--filter", "2x2", "--width", "5", "--budget", "40",
         "--seed", "1", "--trace", out, "--out", out + ".lvl"],
        ["evolve", str(level), "--filter", "2x2", "--mutation", "flip", "--width", "5",
         "--budget", "40"],
        ["cluster", str(level), str(other), "--filter", "2x2", "--cut", "2",
         "--dendrogram-out", out, "--newick-out", out + ".nwk"],
        ["compare", str(generated), "--training", str(level), "--filters", "2x2"],
        ["snippets", str(level), str(other), "--filter", "2x2", "--width", "3"],
    ]
    for argv in commands:
        assert dispatch(argv) == 0, (argv, capsys.readouterr().err)
