import argparse
import csv
import io
import json
import os
import subprocess
import sys
from itertools import accumulate, count
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import leveldiv
from leveldiv import (
    DivergenceConfig,
    EvolutionConfig,
    FilterDims,
    Flip,
    LevelSet,
    TileGrid,
    contributions,
    extract_distribution,
    hill_climb,
    load_level,
    pairwise_matrix,
    serialize_level,
    smb_level_path,
)
from leveldiv.cli import _OUTPUTS, _check_outputs, build_parser, dispatch, main


def _run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _stdin(data):
    """A text stdin over raw bytes, as the interpreter sets it up."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def test_help_exits_zero(capsys):
    code, out, _ = _run(capsys, "--help")
    assert code == 0
    assert "patterns" in out and "evolve" in out


def test_no_subcommand_is_usage_error(capsys):
    code, _, _ = _run(capsys)
    assert code == 1


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = _run(capsys, "frobnicate")
    assert code == 1
    assert "usage" in err


def test_patterns_mario_2x2(capsys):
    path = str(smb_level_path("mario-1-1"))
    code, out, _ = _run(capsys, "patterns", path, "--filter", "2x2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "pattern_key,count"
    assert len(lines) == 1 + 90
    first_key, first_count = lines[1].split(",")
    assert first_count == "2100"
    assert first_key.startswith("2x2:")


def test_patterns_merges_multiple_levels(capsys, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("ab\n")
    b.write_text("ba\n")
    code, out, _ = _run(capsys, "patterns", str(a), str(b), "--filter", "1x1")
    assert code == 0
    rows = dict(
        line.split(",") for line in out.splitlines()[1:]
    )
    assert rows == {"1x1:a": "2", "1x1:b": "2"}


def test_patterns_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", _stdin(b"-X\nXX\n"))
    code, out, _ = _run(capsys, "patterns", "-", "--filter", "1x1")
    assert code == 0
    assert "1x1:X,3" in out
    # a byte-order mark and CR LF line endings read as they do from a file
    monkeypatch.setattr(sys, "stdin", _stdin(b"\xef\xbb\xbf-X\r\nXX\r\n"))
    assert _run(capsys, "patterns", "-", "--filter", "1x1") == (0, out, "")


def test_patterns_csv_bytes(capsys, tmp_path):
    level = tmp_path / "level.txt"
    level.write_text("aab\n")
    code, out, _ = _run(capsys, "patterns", str(level), "--filter", "1x1")
    assert (code, out) == (0, "pattern_key,count\n1x1:a,2\n1x1:b,1\n")


def test_patterns_csv_ties_ordered_by_cells(capsys, tmp_path):
    # most frequent first; b is seen before a, but the tie between them goes by cells
    level = tmp_path / "level.txt"
    level.write_text("bbbaaaccccc\n")
    code, out, _ = _run(capsys, "patterns", str(level), "--filter", "1x1")
    assert (code, out) == (0, "pattern_key,count\n1x1:c,5\n1x1:a,3\n1x1:b,3\n")


def test_patterns_out_file(capsys, tmp_path):
    out_path = tmp_path / "freq.csv"
    path = str(smb_level_path("mario-1-1"))
    code, out, _ = _run(capsys, "patterns", path, "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert out_path.read_text().startswith("pattern_key,count\n")


def test_analyze_self_reports_zero(capsys):
    path = str(smb_level_path("mario-1-1"))
    code, out, _ = _run(capsys, "analyze", path, path)
    assert code == 0
    report = dict(line.split(": ") for line in out.splitlines())
    assert float(report["kl_p_q"]) == 0.0
    assert float(report["kl_q_p"]) == 0.0
    assert float(report["fitness"]) == 0.0


def test_analyze_contributions_csv(capsys, tmp_path):
    p = str(smb_level_path("mario-1-1"))
    q = str(smb_level_path("mario-1-2"))
    contrib = tmp_path / "contrib.csv"
    code, out, _ = _run(
        capsys, "analyze", p, q, "--filter", "2x2",
        "--contributions", str(contrib), "--top", "5",
    )
    assert code == 0
    lines = contrib.read_text().splitlines()
    assert lines[0] == "pattern_key,p_prime,q_prime,summand"
    assert len(lines) == 6
    report = dict(line.split(": ") for line in out.splitlines())
    assert float(report["fitness"]) < 0.0


def test_analyze_contributions_csv_bytes(capsys, tmp_path):
    p, q = tmp_path / "p.txt", tmp_path / "q.txt"
    p.write_text("ab\n")
    q.write_text("aa\n")
    dims = FilterDims(1, 1)
    report = contributions(
        extract_distribution(TileGrid(("ab",)), dims),
        extract_distribution(TileGrid(("aa",)), dims),
        1e-5,
    )
    contrib = tmp_path / "contrib.csv"
    lines = ["pattern_key,p_prime,q_prime,summand\n"]
    # floats at full round-trip precision
    lines += [f"{e.pattern.key},{e.p_prime!r},{e.q_prime!r},{e.summand!r}\n" for e in report]
    assert len(lines) == 3
    for top, expected in ((None, lines), ("1", lines[:2])):
        flags = () if top is None else ("--top", top)
        code, _, _ = _run(capsys, "analyze", str(p), str(q), "--filter", "1x1",
                          "--contributions", str(contrib), *flags)
        assert code == 0
        assert contrib.read_text() == "".join(expected)
    assert float(lines[1].split(",")[3]) == report[0].summand


def test_evolve_is_byte_identical_for_same_seed(capsys, tmp_path):
    path = str(smb_level_path("mario-1-1"))
    outputs = []
    for run in ("one", "two"):
        level = tmp_path / f"{run}.txt"
        trace = tmp_path / f"{run}.csv"
        code, out, err = _run(
            capsys, "evolve", path, "--budget", "2000", "--mutation", "conv",
            "--seed", "42", "--out", str(level), "--trace", str(trace),
        )
        assert code == 0
        assert "seed: 42" in err
        outputs.append((level.read_bytes(), trace.read_bytes()))
    assert outputs[0] == outputs[1]
    rows = list(csv.reader(io.StringIO(outputs[0][1].decode())))
    assert rows[0] == ["eval_index", "candidate_fitness", "best_fitness"]
    assert [int(row[0]) for row in rows[1:]] == list(range(2001))
    best = float(rows[1][1])
    for _, candidate, best_so_far in rows[1:]:
        best = max(best, float(candidate))
        assert float(best_so_far) == best


def test_evolve_trace_bytes_equal_the_library_trace(capsys, tmp_path):
    """The streamed CSV equals rows built from the collected trace, with the
    running best of accumulate(trace, max): this pins the sign of a zero
    fitness and which of two equal values the best keeps."""
    flat = tmp_path / "flat.txt"
    flat.write_text("------\n" * 6)
    runs = [
        ([str(smb_level_path("mario-1-1"))], ("--budget", "2000", "--seed", "42"),
         EvolutionConfig(budget=2000, seed=42)),
        ([str(flat)], ("--mutation", "flip", "--filter", "2x2", "--width", "6",
                       "--budget", "20", "--seed", "0"),
         EvolutionConfig(divergence=DivergenceConfig(dims=FilterDims(2, 2)), target_width=6,
                         budget=20, mutation=Flip(), seed=0)),
    ]
    for paths, flags, config in runs:
        trace_path = tmp_path / "trace.csv"
        code, _, _ = _run(capsys, "evolve", *paths, *flags,
                          "--out", str(tmp_path / "level.txt"), "--trace", str(trace_path))
        assert code == 0
        trace = hill_climb(LevelSet.from_grids([(Path(paths[0]).stem, load_level(paths[0]))]),
                           config).trace
        expected = "eval_index,candidate_fitness,best_fitness\n" + "".join(
            f"{i},{c!r},{b!r}\n" for i, c, b in zip(count(), trace, accumulate(trace, max))
        )
        # compared line by line: a failing diff of the whole text takes minutes
        assert (trace_path.read_bytes().decode().splitlines(keepends=True)
                == expected.splitlines(keepends=True))
    assert expected.splitlines()[1] == "0,-0.0,-0.0"


def test_evolve_trace_on_stdout_needs_out_file(capsys, tmp_path):
    path = str(smb_level_path("mario-1-1"))
    level = tmp_path / "level.txt"
    flags = ("--filter", "2x2", "--budget", "5", "--seed", "3")
    code, out, _ = _run(capsys, "evolve", path, *flags, "--trace", "-", "--out", str(level))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "eval_index,candidate_fitness,best_fitness"
    assert [line.split(",")[0] for line in lines[1:]] == [str(i) for i in range(6)]
    assert len(level.read_text().splitlines()) == 14


def test_failed_evolve_leaves_no_trace_file(capsys, tmp_path):
    path = str(smb_level_path("mario-1-1"))
    trace = tmp_path / "trace.csv"
    # a filter larger than the target fails before the first row
    code, out, err = _run(capsys, "evolve", path, "--width", "3", "--trace", str(trace))
    assert (code, out) == (2, "")
    assert "does not fit" in err
    assert not trace.exists()
    # a trace path that cannot be written
    unwritable = tmp_path / "no-such-dir" / "trace.csv"
    level = tmp_path / "level.txt"
    code, out, err = _run(capsys, "evolve", path, "--budget", "5", "--trace", str(unwritable),
                          "--out", str(level))
    assert (code, out) == (3, "")
    assert err.startswith("leveldiv: i/o error: ")
    assert str(unwritable) in err
    assert not level.exists()


def test_evolve_draws_and_prints_seed_when_missing(capsys, tmp_path):
    path = str(smb_level_path("mario-1-1"))
    code, out, err = _run(
        capsys, "evolve", path, "--budget", "10", "--filter", "2x2",
        "--out", str(tmp_path / "level.txt"),
    )
    assert code == 0
    seed_lines = [line for line in err.splitlines() if line.startswith("seed: ")]
    assert len(seed_lines) == 1
    int(seed_lines[0].removeprefix("seed: "))  # numeric


def test_evolve_level_shape(capsys, tmp_path, tiny_patch_path):
    code, out, err = _run(
        capsys, "evolve", str(tiny_patch_path), "--budget", "20",
        "--filter", "2x2", "--width", "12", "--height", "7", "--seed", "1",
    )
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == 7
    assert all(len(row) == 12 for row in rows)


def test_evolve_rejects_width_below_filter(capsys):
    path = str(smb_level_path("mario-1-1"))
    code, _, _ = _run(capsys, "evolve", path, "--width", "3", "--budget", "5")
    assert code == 2


def test_cluster_matrix_output(capsys):
    paths = [str(smb_level_path(n)) for n in ("mario-1-1", "mario-1-2", "mario-1-3")]
    code, out, _ = _run(capsys, "cluster", *paths, "--filter", "2x2")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["level", "mario-1-1", "mario-1-2", "mario-1-3"]
    assert float(rows[1][1]) == 0.0
    assert float(rows[1][2]) > 0.0


def test_cluster_matrix_csv_roundtrip(capsys, tmp_path):
    grids = [("x", TileGrid(("ab", "ba"))), ("y", TileGrid(("aa", "ab")))]
    for name, grid in grids:
        (tmp_path / f"{name}.txt").write_text(serialize_level(grid) + "\n")
    paths = [str(tmp_path / f"{name}.txt") for name, _ in grids]
    code, out, _ = _run(capsys, "cluster", *paths, "--filter", "1x1")
    assert code == 0
    config = DivergenceConfig(dims=FilterDims(1, 1))
    (_, xy), (yx, _) = pairwise_matrix(LevelSet.from_grids(grids), config).values
    assert out == f"level,x,y\nx,0.0,{xy!r}\ny,{yx!r},0.0\n"
    rows = list(csv.reader(io.StringIO(out)))
    assert [float(v) for v in rows[1][1:]] == [0.0, xy] and xy > 0.0


def test_cluster_cut_and_artifacts(capsys, tmp_path):
    names = ("mario-1-1", "mario-2-1", "mario-1-2", "mario-4-2", "mario-1-3", "mario-3-3")
    paths = [str(smb_level_path(n)) for n in names]
    dendro_path = tmp_path / "tree.json"
    newick_path = tmp_path / "tree.nwk"
    matrix_path = tmp_path / "matrix.csv"
    code, out, _ = _run(
        capsys, "cluster", *paths, "--filter", "2x2", "--cut", "3",
        "--matrix-out", str(matrix_path),
        "--dendrogram-out", str(dendro_path),
        "--newick-out", str(newick_path),
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["level", "cluster"]
    labels = {name: cluster for name, cluster in rows[1:]}
    assert labels["mario-1-1"] == labels["mario-2-1"]
    assert labels["mario-1-2"] == labels["mario-4-2"]
    assert labels["mario-1-3"] == labels["mario-3-3"]
    assert len(set(labels.values())) == 3
    tree = json.loads(dendro_path.read_text())
    assert tree["leaves"] == list(names)
    assert len(tree["merges"]) == 5
    assert newick_path.read_text().rstrip().endswith(";")
    assert matrix_path.read_text().startswith("level,")


def test_cli_import_leaves_out_multiprocessing():
    src = str(Path(leveldiv.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = "import sys, leveldiv.cli; print(sorted(m for m in sys.modules if 'multiprocessing' in m))"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cluster_names_levels_by_path_where_stems_collide(capsys, tmp_path):
    for folder, source in (("a", "mario-1-1"), ("b", "mario-1-2")):
        (tmp_path / folder).mkdir()
        (tmp_path / folder / "x.txt").write_bytes(smb_level_path(source).read_bytes())
    first, second = str(tmp_path / "a" / "x.txt"), str(tmp_path / "b" / "x.txt")
    third = str(smb_level_path("mario-1-3"))
    code, out, _ = _run(capsys, "cluster", first, second, third, "--filter", "2x2",
                        "--cut", "3")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [name for name, _ in rows] == ["level", first, second, "mario-1-3"]
    assert len({label for _, label in rows[1:]}) == 3
    code, _, err = _run(capsys, "cluster", first, first, third, "--filter", "2x2")
    assert code == 2
    assert "duplicate level names" in err
    # one file under two spellings
    again = str(tmp_path / "a" / ".." / "a" / "x.txt")
    code, out, err = _run(capsys, "cluster", first, again, third, "--filter", "2x2")
    assert code == 2
    assert f"duplicate level names: [{first!r}, {again!r}]" in err
    assert out == ""


def test_cluster_invalid_cut_is_data_error(capsys):
    paths = [str(smb_level_path(n)) for n in ("mario-1-1", "mario-1-2")]
    code, _, _ = _run(capsys, "cluster", *paths, "--cut", "9")
    assert code == 2


def test_compare_end_to_end(capsys, tmp_path):
    gen = tmp_path / "gen"
    gen.mkdir()
    (gen / "a.txt").write_text((smb_level_path("mario-1-3")).read_text())
    (gen / "bad.txt").write_text("ab\nabc\n")
    training = str(smb_level_path("mario-1-1"))
    code, out, err = _run(
        capsys, "compare", str(gen), "--training", training,
        "--filters", "1x1", "--filters", "2x2", "--weights", "0", "--weights", "1",
    )
    assert code == 0
    assert "skipped 1 unusable file" in err
    rows = list(csv.reader(io.StringIO(out)))
    # three columns per (filter, weight), filters outer
    assert rows[0] == [
        "generator",
        "1x1_0", "1x1_0_std", "1x1_0_count",
        "1x1_1", "1x1_1_std", "1x1_1_count",
        "2x2_0", "2x2_0_std", "2x2_0_count",
        "2x2_1", "2x2_1_std", "2x2_1_count",
    ]
    assert rows[1][0] == "gen"
    assert rows[1][3] == "1"  # one parsed level
    assert float(rows[1][1]) >= 0.0


def test_compare_unreadable_file_is_io_error(capsys, tmp_path, monkeypatch):
    gen = tmp_path / "gen"
    gen.mkdir()
    for name in ("a.txt", "locked.txt"):
        (gen / name).write_text("ab\nba\n")
    read_bytes = Path.read_bytes

    def guarded(path):
        # chmod 000 does not stop root, so the denial is simulated
        if path.name == "locked.txt":
            raise PermissionError(13, "Permission denied", str(path))
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", guarded)
    training = str(smb_level_path("mario-1-1"))
    code, out, err = _run(capsys, "compare", str(gen), "--training", training,
                          "--filters", "1x1")
    assert code == 3
    assert "leveldiv: i/o error: cannot read level file" in err
    assert "locked.txt" in err
    assert out == ""


def test_compare_unreadable_directory_is_io_error(capsys, tmp_path):
    gen = tmp_path / "gen"
    gen.mkdir()
    (gen / "a.txt").write_text("ab\nba\n")
    training = str(smb_level_path("mario-1-1"))
    # a path that does not exist, and a regular file given as a directory
    for directory in (tmp_path / "missing", gen / "a.txt"):
        code, out, err = _run(capsys, "compare", str(gen), str(directory),
                              "--training", training, "--filters", "1x1")
        assert code == 3
        assert f"leveldiv: i/o error: cannot read level directory {directory}: " in err
        assert out == ""


def test_compare_names_rows_by_path_where_basenames_collide(capsys, tmp_path, monkeypatch):
    for folder, source in (("a", "mario-1-1"), ("b", "mario-1-2")):
        (tmp_path / folder / "gen").mkdir(parents=True)
        (tmp_path / folder / "gen" / "x.txt").write_bytes(smb_level_path(source).read_bytes())
    first, second = str(tmp_path / "a" / "gen"), str(tmp_path / "b" / "gen")
    training = str(smb_level_path("mario-1-1"))
    code, out, _ = _run(capsys, "compare", first, second, "--training", training,
                        "--filters", "2x2")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [row[0] for row in rows] == ["generator", first, second]
    assert float(rows[1][1]) == 0.0 < float(rows[2][1])
    code, out, err = _run(capsys, "compare", first, first, "--training", training,
                          "--filters", "2x2")
    assert code == 2
    assert "duplicate directory names" in err
    assert out == ""
    # one directory under two spellings
    code, out, err = _run(capsys, "compare", first, first + os.sep, "--training", training,
                          "--filters", "2x2")
    assert code == 2
    assert f"duplicate directory names: [{first!r}, {first + os.sep!r}]" in err
    assert out == ""
    # "." is named by the directory it stands for, in the row and in the warning
    (tmp_path / "a" / "gen" / "bad.txt").write_text("ab\nabc\n")
    monkeypatch.chdir(first)
    code, out, err = _run(capsys, "compare", ".", "--training", training, "--filters", "2x2")
    assert code == 0
    assert [row[0] for row in csv.reader(io.StringIO(out))] == ["generator", "gen"]
    assert "warning: skipped 1 unusable file(s) in gen" in err


def test_compare_requires_training(capsys, tmp_path):
    code, _, _ = _run(capsys, "compare", str(tmp_path))
    assert code == 1


def test_snippets_csv(capsys):
    path = str(smb_level_path("mario-1-1"))
    code, out, _ = _run(capsys, "snippets", path, "--width", "30")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["offset", "fitness"]
    assert len(rows) == 1 + 200
    assert rows[1][0] == "0"
    assert all(float(r[1]) <= 0.0 for r in rows[1:])


def test_exit_code_usage_errors(capsys):
    path = str(smb_level_path("mario-1-1"))
    assert _run(capsys, "patterns", path, "--filter", "4xx")[0] == 1
    assert _run(capsys, "patterns", path, "--filter", "0x4")[0] == 1
    assert _run(capsys, "evolve", path, "--weight", "1.5")[0] == 1
    assert _run(capsys, "evolve", path, "--budget", "0")[0] == 1
    assert _run(capsys, "evolve", path, "--epsilon", "0")[0] == 1
    for rate in ("nan", "inf"):
        assert _run(capsys, "evolve", path, "--mutation", "flip", "--flip-rate", rate)[0] == 1
    assert _run(capsys, "evolve", path, "--mutation", "conv", "--flip-rate", "nan")[0] == 1
    directory = str(Path(path).parent)
    assert _run(capsys, "compare", directory, "--training", path, "--epsilon", "0")[0] == 1
    assert _run(capsys, "compare", directory, "--training", path, "--weights", "1.5")[0] == 1
    # flags that no command reads are not accepted
    assert _run(capsys, "patterns", path, "--epsilon", "1e-5")[0] == 1
    assert _run(capsys, "evolve", path, "--no-accept-equal")[0] == 1
    # an epsilon that passes the range check but makes P' of an unseen pattern 0
    for argv in (("analyze", path, path), ("evolve", path, "--seed", "0", "--budget", "10")):
        code, _, err = _run(capsys, *argv, "--epsilon", "5e-324")
        assert code == 1
        assert "leveldiv: error: epsilon 5e-324 is too small" in err
    # two compare columns with one header name
    code, out, err = _run(capsys, "compare", str(Path(path).parent), "--training", path,
                          "--filters", "2x2", "--weights", "0.5", "--weights", "0.5000001")
    assert code == 1
    assert "leveldiv: error: duplicate compare column 2x2_0.5" in err
    assert out == ""


def test_positive_int_flags_are_usage_errors(capsys):
    path, other = (str(smb_level_path(name)) for name in ("mario-1-1", "mario-1-2"))
    for argv in (
        ("cluster", path, other, "--cut", "x"),
        ("evolve", path, "--width", "2.5"),
        ("analyze", path, other, "--contributions", "-", "--top", "x"),
        ("snippets", path, "--width", "0"),
    ):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert f"expected a positive integer, got {argv[-1]}" in err, argv
        assert "_positive_int" not in err, argv


def test_bad_values_are_reported_before_levels_are_read(capsys, tmp_path):
    path, other = (str(smb_level_path(name)) for name in ("mario-1-1", "mario-1-2"))
    missing = str(tmp_path / "missing.txt")
    shared = str(tmp_path / "out")
    same = f"{tmp_path}/./out"  # another spelling of the same file
    usage = [
        (("evolve", path), ("--epsilon", "0")),
        (("evolve", path), ("--epsilon", "nan")),
        (("evolve", path), ("--weight", "1.5")),
        (("evolve", path), ("--mutation", "flip", "--flip-rate", "nan")),
        (("evolve", path), ("--mutation", "conv", "--flip-rate", "-1")),
        (("analyze", path), ("--epsilon", "2")),
        (("cluster", path), ("--epsilon", "0")),
        (("snippets", path), ("--weight", "7")),
        (("analyze", path), ("--top", "3")),  # trims nothing without --contributions
        # a streamed trace would share standard output with the level
        (("evolve", path), ("--trace", "-")),
        (("evolve", path), ("--trace", "-", "--out", "-")),
        # two outputs naming one file: only the last written would be left
        (("evolve", path), ("--out", shared, "--trace", shared)),
        (("cluster", path), ("--cut", "2", "--out", shared, "--matrix-out", shared,
                             "--newick-out", shared)),
        (("analyze", path), ("--out", shared, "--contributions", same)),
    ]
    for levels, flags in usage:
        # the second run's missing level is never read
        for args in ((*levels, other, *flags), (*levels, missing, *flags)):
            code, out, err = _run(capsys, *args)
            assert (code, out) == (1, ""), args
            assert err.startswith("leveldiv: error: "), args
    assert not Path(shared).exists()
    code, _, err = _run(capsys, "analyze", path, other, "--out", shared, "--contributions", same)
    assert err == f"leveldiv: error: --out and --contributions name one file, {same}\n"
    # a target smaller than the filter is found by the climb, before any seed is printed
    for flags in (("--width", "3"), ("--height", "3"), ("--filter", "2x2", "--width", "1")):
        code, out, err = _run(capsys, "evolve", path, *flags)
        assert (code, out) == (2, ""), flags
        assert err.startswith("leveldiv: error: filter "), flags
        assert "does not fit" in err


def test_every_parsed_flag_is_read(capsys, tmp_path):
    """Each command reads every value its parser accepts, so no flag is dead."""
    level, other = (str(smb_level_path(name)) for name in ("mario-1-1", "mario-1-2"))
    generated = tmp_path / "gen"
    generated.mkdir()
    (generated / "a.txt").write_bytes(smb_level_path("mario-1-3").read_bytes())
    out = tmp_path / "out"
    positionals = {
        "patterns": [level], "analyze": [level, other], "evolve": [level],
        "cluster": [level, other], "compare": [str(generated)], "snippets": [level],
    }
    # A valid value per destination; flags that take no value are given bare.
    # Each output flag gets its own path: two naming one file are a usage error.
    values = {
        "epsilon": "1e-5", "filter": "2x2", "filters": "2x2", "weight": "0.5",
        "weights": "0.5", "out": f"{out}.out", "contributions": f"{out}.contributions",
        "top": "3", "budget": "5", "width": "8", "height": "6", "mutation": "flip",
        "flip_rate": "2", "seed": "1", "trace": f"{out}.trace", "cut": "2",
        "matrix_out": f"{out}.matrix", "dendrogram_out": f"{out}.json",
        "newick_out": f"{out}.nwk", "training": level,
    }
    reads = set()

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(positionals) == set(commands.choices)
    for name, command in commands.choices.items():
        actions = [a for a in command._actions if a.dest != "help"]
        argv = [name, *positionals[name]]
        for action in actions:
            if action.option_strings:
                argv.append(action.option_strings[0])
                if action.nargs != 0:
                    argv.append(values[action.dest])
        # every output flag is among those checked for sharing one file
        assert {a.dest for a in actions if a.metavar == "PATH"} <= set(_OUTPUTS), name
        args = parser.parse_args(argv, namespace=Recorder())
        func = args.func
        _check_outputs(args)
        reads.clear()
        assert func(args) == 0, argv
        assert sorted({a.dest for a in actions} - reads) == [], argv
    capsys.readouterr()


def test_exit_code_data_errors(capsys, tmp_path, monkeypatch):
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("ab\nabc\n")
    assert _run(capsys, "patterns", str(ragged))[0] == 2
    monkeypatch.setattr(sys, "stdin", _stdin(b"ab\nabc\n"))
    assert _run(capsys, "patterns", "-")[0] == 2
    monkeypatch.setattr(sys, "stdin", _stdin(b"-X\nX\xe9\n"))
    code, _, err = _run(capsys, "patterns", "-", "--filter", "1x1")
    assert code == 2
    assert "stdin: not UTF-8" in err
    path = str(smb_level_path("mario-1-1"))
    assert _run(capsys, "patterns", path, "--filter", "40x40")[0] == 2
    # a level smaller than the filter is named
    small = tmp_path / "small.txt"
    small.write_text("ab\nba\n")
    code, _, err = _run(capsys, "analyze", path, str(small))
    assert code == 2
    assert "small.txt" in err
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"-X\nX\xe9\n")
    code, _, err = _run(capsys, "patterns", str(latin1))
    assert code == 2
    assert "latin1.txt" in err


def test_exit_code_io_errors(capsys, tmp_path):
    missing = str(tmp_path / "missing.txt")
    assert _run(capsys, "patterns", missing)[0] == 3
    path = str(smb_level_path("mario-1-1"))
    bad_out = str(tmp_path / "no-such-dir" / "x.csv")
    assert _run(capsys, "patterns", path, "--out", bad_out)[0] == 3


def test_main_exits_with_dispatch_code(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main_argv = sys.argv
        try:
            sys.argv = ["leveldiv", "frobnicate"]
            main()
        finally:
            sys.argv = main_argv
    assert exit_info.value.code == 1


# Fixed examples, no example database: the property tests run the same way on
# every machine. The tests reuse one file per example, so the function-scoped
# fixtures are safe to share.
_PROPERTY_SETTINGS = settings(
    derandomize=True,
    database=None,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
# Printable means every category but "other" and "separator", plus the space.
_TILES = st.characters(codec="utf-8", exclude_categories=("C", "Z"), include_characters=" ")


@st.composite
def _grids(draw):
    width = draw(st.integers(1, 5))
    row = st.text(_TILES, min_size=width, max_size=width)
    return TileGrid(tuple(draw(st.lists(row, min_size=1, max_size=4))))


@_PROPERTY_SETTINGS
@given(
    grid=_grids(),
    bom=st.booleans(),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    trailing=st.booleans(),
)
def test_level_bytes_read_alike_from_file_and_stdin(
    capsys, monkeypatch, tmp_path, grid, bom, newline, trailing
):
    text = serialize_level(grid).replace("\n", newline) + (newline if trailing else "")
    data = (b"\xef\xbb\xbf" if bom else b"") + text.encode("utf-8")
    path = tmp_path / "level.txt"
    path.write_bytes(data)
    assert load_level(path) == grid
    # a filter the size of the grid sees the whole grid as its one pattern
    dims = f"{grid.width}x{grid.height}"
    from_file = _run(capsys, "patterns", str(path), "--filter", dims)
    monkeypatch.setattr(sys, "stdin", _stdin(data))
    from_stdin = _run(capsys, "patterns", "-", "--filter", dims)
    assert from_stdin == from_file
    code, out, _ = from_file
    assert code == 0
    assert list(csv.reader(io.StringIO(out)))[1] == [f"{dims}:{grid.cells}", "1"]


_LEVEL_BYTES = st.binary(max_size=48) | st.lists(
    st.sampled_from([b"-", b"X", b" ", b"\t", b"\n", b"\r", b"\r\n", b"\xef\xbb\xbf", b"\xe9"]),
    max_size=24,
).map(b"".join)


@_PROPERTY_SETTINGS
@given(data=_LEVEL_BYTES)
def test_patterns_exit_code_for_any_file_bytes(capsys, tmp_path, data):
    path = tmp_path / "level.txt"
    path.write_bytes(data)
    code, _, err = _run(capsys, "patterns", str(path), "--filter", "2x2")
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
