#!/usr/bin/env python3
"""leveldiv benchmark: level generation, corpus tools and CLI start-up.

Run from the root of a leveldiv checkout; the program is imported from its
`src/` directory:

    python3 perfbench/run.py --workload climb-4x4 --seed 1 --seconds 30 --trace 0

Each workload runs in this one process as a closed loop with one client and no
think time: the next operation starts when the previous one returns. Every
operation calls `leveldiv.cli.dispatch` and its output is checked after its
clock stops.

--trace 0 measures the end-to-end metrics for --seconds seconds. --trace 1
runs a fixed list of operations, each once untraced and once traced, and
reports per-layer metrics; the spans are written to
.bench_out/spans-<workload>.csv.gz. The last line of standard output is the
result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import inputs
from speed import Speed
from stats import tail
from workloads import Climb, Corpus, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PEAK = Path(__file__).resolve().parent / "peak.py"
SMB = SRC / "leveldiv" / "data" / "smb"
WORK_ROOT = ROOT / ".bench_work"
SPANS_DIR = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 120.0
# Seconds between two timed start-ups of the set-up command in a --trace 0 run.
SETUP_EVERY_S = 2.0

WORKLOADS = {
    "climb-4x4": lambda budget: Climb(SMB, ["--filter", "4x4", "--mutation", "conv"], budget),
    "climb-2x2-flip": lambda budget: Climb(
        SMB, ["--filter", "2x2", "--mutation", "flip", "--flip-rate", "3"], budget
    ),
    "corpus": lambda budget: Corpus(SMB),
}


class Size:
    """How much one run does. The smoke size serves the self-check only."""

    def __init__(self, smoke: bool):
        self.budget = 300 if smoke else 10_000
        # Fresh-interpreter start-ups timed in a run (at least, with --trace 0).
        self.setups = 2 if smoke else 7
        self.traced_ops = {"climb": 1 if smoke else 2, "corpus": 2 if smoke else 8}


END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "evals_per_s": "1/s",
    "divergence_p50": "nats",
    "peak_mem_mb": "MiB",
}
PER_LAYER = {
    "setup.import_s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "B",
    "levels.parse_calls": "count",
    "levels.self_s": "s",
    "patterns.windows": "count",
    "patterns.self_s": "s",
    "patterns.ns_per_window": "ns",
    "divergence.terms": "count",
    "divergence.self_s": "s",
    "divergence.ns_per_term": "ns",
    "evolve.apply_calls": "count",
    "evolve.windows_recounted": "count",
    "evolve.apply_self_s": "s",
    "evolve.ns_per_recount": "ns",
    "evolve.eval_calls": "count",
    "evolve.eval_terms": "count",
    "evolve.eval_self_s": "s",
    "evolve.ns_per_eval_term": "ns",
    "evolve.loop_self_s": "s",
    "evolve.snippet_self_s": "s",
    "evolve.accept_ratio": "ratio",
    "evolve.neutral_ratio": "ratio",
    "evolve.last_improvement_p50": "evals",
    "analysis.pairwise_self_s": "s",
    "analysis.linkage_self_s": "s",
    "analysis.compare_self_s": "s",
    "corpus.cluster_p50_s": "s",
    "corpus.compare_p50_s": "s",
    "corpus.snippets_p50_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def run_child(args: list[str], cwd: Path) -> tuple[int, float]:
    """Run `args` in a fresh interpreter: (exit code, wall seconds)."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), path])))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    # A blocking wait: Popen.wait(timeout) polls with sleeps of up to 50 ms,
    # which would round the measured time up to that grid.
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
        timer.join()
    return code, time.perf_counter() - start


def child_seconds(args: list[str], cwd: Path, repeats: int) -> float:
    """Median wall seconds of `repeats` fresh runs of `args`, after one untimed run."""
    run_child(args, cwd)
    seconds = []
    for _ in range(repeats):
        code, wall = run_child(args, cwd)
        if code != 0:
            raise BenchError(f"{' '.join(args[:4])} ... exited with {code}")
        seconds.append(wall)
    return statistics.median(seconds)


def cli_peak(cli_args: list[str], cwd: Path) -> tuple[int, int]:
    """Run one command line in a fresh interpreter: (exit code, KiB of resident
    memory the command added at its peak; see peak.py)."""
    record = cwd / "peak-kib.txt"
    record.unlink(missing_ok=True)
    code, _ = run_child([str(PEAK), str(record), *cli_args], cwd)
    if not record.exists():
        raise BenchError(f"{' '.join(cli_args[:3])} ... recorded no peak memory")
    return code, int(record.read_text(encoding="ascii"))


def repeat_children(workload, first: Outcome, work: Path) -> tuple[list[str], int]:
    """Rerun the first operation in fresh interpreters: (problems, peak KiB added)."""
    problems, peak_kib = [], 0
    for args, expected in workload.child_runs(first):
        code, kib = cli_peak(args, work)
        peak_kib = max(peak_kib, kib)
        problems += checks.check_exit(args[0], code)
        for path, data in expected:
            rerun = path.read_bytes() if path.exists() else b""
            problems += checks.check_same(path.name, data, rerun)
    return problems, peak_kib


def _timing(times: list[float]) -> dict[str, float]:
    """Median and tail of one series of operation times."""
    value, percentile, count = tail(times)
    return {"p50_s": statistics.median(times), "tail_s": value,
            "tail_percentile": percentile, "samples": count}


def _evals_per_s(outcomes: list[Outcome]) -> float:
    """Median over the good operations of evaluations per second."""
    rates = [o.evaluations / o.eval_seconds for o in outcomes if not o.problems]
    return statistics.median(rates) if rates else 0.0


def end_to_end(workload, seconds: float, size: Size, work: Path):
    setup_args = ["-m", "leveldiv.cli", *workload.setup_args()]
    run_child(setup_args, work)
    speed = Speed(workload.sensitivity)
    workload.warm_up()
    measured, setups = [], []
    deadline = time.perf_counter() + seconds
    next_setup = 0.0
    while not measured or time.perf_counter() < deadline or len(setups) < size.setups:
        speed.gap()
        # Start-ups are spread over the run, so they meet the same host load as
        # the operations and the slices.
        if time.perf_counter() >= next_setup:
            code, wall = run_child(setup_args, work)
            if code != 0:
                raise BenchError(f"set-up command exited with {code}")
            setups.append(wall)
            next_setup = time.perf_counter() + SETUP_EVERY_S
        measured.append(workload.run(len(measured)))
    speed.gap()
    factor = speed.factor()
    setup_s = statistics.median(setups)
    repeat_problems, peak_kib = repeat_children(workload, measured[0], work)
    divergences = [d for o in measured if not o.problems for d in o.divergences]
    metrics = {
        "setup_s": setup_s * factor,
        "op_p50_s": statistics.median(o.seconds for o in measured) * factor,
        "evals_per_s": _evals_per_s(measured) / factor,
        "divergence_p50": statistics.median(divergences) if divergences else 0.0,
        "peak_mem_mb": peak_kib / 1024,
    }
    detail = {
        "slice_p50_s": statistics.median(speed.slices),
        "slices": len(speed.slices),
        "setups": len(setups),
        "op": _timing([o.seconds * factor for o in measured]),
        "commands": {
            name: _timing([o.commands[name] * factor for o in measured])
            for name in measured[0].commands
        },
    }
    problems = [p for o in measured for p in o.problems] + repeat_problems
    failed = sum(bool(o.problems) for o in measured) + bool(repeat_problems)
    return metrics, detail, len(measured) + 1, failed, problems


def per_layer(workload, kind: str, size: Size, work: Path, name: str):
    from tracing import Tracer, layer_metrics

    speed = Speed(workload.sensitivity)
    speed.gap()
    bare = child_seconds(["-c", "pass"], work, size.setups)
    imported = child_seconds(["-c", "import leveldiv.cli"], work, size.setups)
    speed.gap()
    workload.warm_up()
    tracer = Tracer()
    untraced, traced = [], []
    for index in range(size.traced_ops[kind]):
        untraced.append(workload.run(index))
        speed.gap()
        tracer.op = index
        tracer.install()
        try:
            outcome = workload.run(index)
        finally:
            tracer.uninstall()
        for number, (plain, under_trace) in enumerate(zip(untraced[-1].outputs, outcome.outputs)):
            outcome.problems += checks.check_same(
                f"output {number + 1} under tracing", plain, under_trace
            )
        traced.append(outcome)
        speed.gap()
    ops = len(traced)
    metrics, absent = layer_metrics(tracer, ops)
    tracer.write(SPANS_DIR / f"spans-{name}.csv.gz")
    traced_op_s = sum(o.seconds for o in traced) / ops
    shares = {m: v / traced_op_s for m, v in metrics.items() if m.endswith("self_s")}
    searches = [o.search for o in traced if o.search]
    budget = sum(s[3] for s in searches)
    metrics.update({
        "setup.import_s": imported - bare,
        "cli.bytes_out": statistics.fmean(o.bytes_out for o in untraced),
        "evolve.accept_ratio": sum(s[0] for s in searches) / budget if budget else 0.0,
        "evolve.neutral_ratio": sum(s[1] for s in searches) / budget if budget else 0.0,
        "evolve.last_improvement_p50": (statistics.median(s[2] for s in searches)
                                        if searches else 0.0),
        "trace.overhead_frac": (sum(o.seconds for o in traced)
                                / sum(o.seconds for o in untraced) - 1.0),
    })
    for command in ("cluster", "compare", "snippets"):
        times = [o.commands[command] for o in untraced if command in o.commands]
        metrics[f"corpus.{command}_p50_s"] = statistics.median(times) if times else 0.0
    factor = speed.factor()
    for metric, unit in PER_LAYER.items():
        if unit in ("s", "ns"):
            metrics[metric] *= factor
    detail = {"ops": ops, "absent": absent, "share_of_traced_op": shares,
              "slice_p50_s": statistics.median(speed.slices)}
    outcomes = untraced + traced
    problems = [p for o in outcomes for p in o.problems]
    return metrics, detail, len(outcomes), sum(bool(o.problems) for o in outcomes), problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small budgets and few repeats, for the self-check")
    args = parser.parse_args(argv)

    if not (SRC / "leveldiv" / "cli.py").is_file():
        print(f"perfbench: no leveldiv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import leveldiv.cli

    if Path(leveldiv.cli.__file__).resolve().parent != (SRC / "leveldiv").resolve():
        print(f"perfbench: leveldiv imported from {leveldiv.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    size = Size(args.smoke)
    workload = WORKLOADS[args.workload](size.budget)
    kind = "corpus" if args.workload == "corpus" else "climb"
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        for sub in ("setup", "child"):
            (work / sub).mkdir()
        workload.prepare(work, inputs.workload_rng(args.workload, args.seed))
        if args.trace:
            units = PER_LAYER
            result = per_layer(workload, kind, size, work, args.workload)
        else:
            units = END_TO_END
            result = end_to_end(workload, args.seconds, size, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    metrics, detail, attempted, failed, problems = result

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} operations, {failed} failed "
          f"(failed_frac {failed / attempted:.4g})")
    for problem in problems[:20]:
        print(f"  problem: {problem}")
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:>16.6g} {unit}")
    print("perfbench-detail " + json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "failed_frac": failed / attempted, **detail}
    ))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
