import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import leveldiv
from leveldiv import TileGrid, load_level, serialize_level, smb_level_path
from leveldiv.cli import dispatch, main


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


def test_cluster_jobs_capped_by_level_count(capsys, in_process_pool):
    paths = [str(smb_level_path(n)) for n in ("mario-1-1", "mario-1-2")]
    code, parallel, _ = _run(capsys, "cluster", *paths, "--filter", "2x2", "--jobs", "64")
    assert code == 0
    assert all(workers <= 2 for workers in in_process_pool.started)
    code, serial, _ = _run(capsys, "cluster", *paths, "--filter", "2x2")
    assert code == 0
    assert parallel == serial


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
    assert rows[0][0] == "generator"
    assert rows[0][1:4] == ["1x1_0", "1x1_0_std", "1x1_0_count"]
    assert rows[1][0] == "gen"
    assert rows[1][3] == "1"  # one parsed level
    assert float(rows[1][1]) >= 0.0


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
