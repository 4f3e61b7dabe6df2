#!/usr/bin/env python3
"""Self-check of the benchmark. Run from the repository root:

    python3 perfbench/selfcheck.py

1. Runs every workload of run.py at smoke size, untraced and traced, and asserts that
   the result names every metric of BENCHMARK.json with its unit and that no
   operation failed.
2. Produces one real output of every command, then asserts that each output
   check passes it and rejects a deliberately corrupted copy.
3. Asserts that the benchmark exits non-zero, without a result, in a
   directory that holds only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import inputs
from run import ROOT, SRC, WORK_ROOT, WORKLOADS, Size
from workloads import FAMILIES

RUN = Path(__file__).resolve().parent / "run.py"


def _fail(message: str) -> None:
    raise SystemExit(f"selfcheck: FAIL: {message}")


def check_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {w["name"] for w in spec["workloads"]}
    if not listed <= WORKLOADS.keys():
        _fail(f"BENCHMARK.json names unknown workloads {sorted(listed - WORKLOADS.keys())}")
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            if proc.returncode != 0:
                _fail(f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                _fail(f"result keys {sorted(result)}")
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != expected:
                _fail(f"{workload} trace {trace} printed {printed}, expected {expected}")
            if not result["correct"] or result["failed"]:
                _fail(f"{workload} trace {trace} failed: {proc.stdout[-2000:]}")
            print(f"selfcheck: {workload} trace {trace}: {len(printed)} metrics, "
                  f"{result['attempted']} operations, none failed")


def _expect(what: str, problems: list[str], rejected: bool) -> None:
    if bool(problems) != rejected:
        _fail(f"{what}: {'accepted' if rejected else 'rejected'} ({problems})")
    print(f"selfcheck: {what}: {'rejected' if rejected else 'passed'}")


def _flip_tile(text: str, alphabet: str) -> str:
    rows = text.splitlines()
    row = rows[5]
    other = next(ch for ch in alphabet if ch != row[10])
    rows[5] = row[:10] + other + row[11:]
    return "\n".join(rows) + "\n"


def check_checks(work: Path) -> None:
    size = Size(smoke=True)
    for sub in ("setup", "child"):
        (work / sub).mkdir()

    climb = WORKLOADS["climb-4x4"](size.budget)
    climb.prepare(work, inputs.workload_rng("climb-4x4", 7))
    outcome = climb.run(0)
    _expect("climb output", outcome.problems, False)
    level, trace = (data.decode() for data in outcome.outputs)
    fit = climb.scratch_fitness
    _expect("climb level with one flipped tile",
            checks.check_trace(_flip_tile(level, climb.alphabet), trace, size.budget, fit), True)
    _expect("climb level with a foreign symbol",
            checks.check_level(level.replace(level[0], "@", 1), 30, 14, climb.alphabet), True)
    _expect("climb level one row short",
            checks.check_level("\n".join(level.splitlines()[1:]), 30, 14, climb.alphabet), True)
    _expect("climb trace one row short",
            checks.check_trace(level, trace.rsplit("\n", 2)[0] + "\n", size.budget, fit), True)
    _expect("climb rerun with one byte changed",
            checks.check_same("level", outcome.outputs[0], outcome.outputs[0][:-1] + b"?"), True)

    corpus = WORKLOADS["corpus"](size.budget)
    corpus.prepare(work, inputs.workload_rng("corpus", 7))
    outcome = corpus.run(0)
    _expect("corpus outputs", outcome.problems, False)
    labels, table, snippets = (data.decode() for data in outcome.outputs)
    rows = {line.split(",")[0]: line.split(",") for line in labels.splitlines()}
    overworld, underground = rows["mario-1-1"], rows["mario-1-2"]
    overworld[1], underground[1] = underground[1], overworld[1]
    swapped = "".join(",".join(row) + "\n" for row in rows.values())
    _expect("cluster labels of two families swapped",
            checks.check_cluster(swapped, FAMILIES), True)

    expected = corpus.expected_compare
    name, valid, ragged, _ = expected[0]
    warning = f"warning: skipped {ragged + 1} unparseable file(s) in {name}\n"
    _expect("compare warning with a wrong skipped count",
            checks.check_compare(table, warning, expected), True)
    header, first, *rest = table.splitlines()
    count_at = header.split(",").index("4x4_0.5_count")
    cells = first.split(",")
    cells[count_at] = str(valid + 1)
    _expect("compare row with a wrong count",
            checks.check_compare("\n".join([header, ",".join(cells), *rest]), _warnings(expected),
                                 expected), True)
    cells = first.split(",")
    mean_at = header.split(",").index("4x4_0.5")
    cells[mean_at] = repr(float(cells[mean_at]) * (1 + 1e-6))
    _expect("compare row with a mean off by 1e-6",
            checks.check_compare("\n".join([header, ",".join(cells), *rest]), _warnings(expected),
                                 expected), True)
    _expect("compare table missing a row",
            checks.check_compare("\n".join([header, *rest]), _warnings(expected), expected), True)

    samples = corpus.snippet_samples
    offset = next(iter(samples))
    lines = snippets.splitlines()
    at, value = lines[offset + 1].split(",")
    lines[offset + 1] = f"{at},{float(value) * (1 + 1e-12)!r}"
    _expect("snippets row with a changed fitness",
            checks.check_snippets("\n".join(lines), corpus.snippet_offsets, samples), True)
    _expect("snippets table missing its last row",
            checks.check_snippets("\n".join(snippets.splitlines()[:-1]),
                                  corpus.snippet_offsets, samples), True)


def _warnings(expected) -> str:
    return "".join(
        f"warning: skipped {ragged} unparseable file(s) in {name}\n"
        for name, _, ragged, _ in expected if ragged
    )


def check_bare_directory(work: Path) -> None:
    bare = work / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(RUN.parent, bare / RUN.parent.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bare / RUN.parent.name / RUN.name), "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode == 0 or proc.stdout.strip():
        _fail(f"bare directory: exit {proc.returncode}, output {proc.stdout!r}")
    print(f"selfcheck: bare directory: exit {proc.returncode}, no result")


def main() -> int:
    sys.path.insert(0, str(SRC))
    check_metrics()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        check_checks(work)
        check_bare_directory(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print("selfcheck: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
