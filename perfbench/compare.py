#!/usr/bin/env python3
"""Summarise the runs of one commit, or compare the runs of two.

    python3 perfbench/compare.py RUNS              # median, quartiles and spread
    python3 perfbench/compare.py PARENT CHANGE     # verdict per (metric, workload)

RUNS, PARENT and CHANGE are directories holding the standard output of
`perfbench/run.py`, one file per run. Runs with --trace 0 give the end-to-end
metrics, runs with --trace 1 the per-layer ones. Runs of the two commits are
paired by workload and seed, so run both on the same seeds, alternating which
commit goes first.

Verdicts on the end-to-end metrics, with `bound` from BENCHMARK.json:
  improved    the change wins at least nine tenths of the pairs (ties count for
              neither) and the medians differ, the right way, by more than the
              distance between the parent's quartiles;
  worse       the change's median is worse than the parent's by more than bound;
  unresolved  otherwise, when the parent's spread (quartile distance over
              median) exceeds bound, unless every change run beats every
              parent run;
  no worse    otherwise.
Per-layer metrics, and the per-command medians of the corpus workload's detail
line (detail.<command>_p50_s), have no bound; their medians and change are
printed.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

from stats import quartiles

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# (workload, trace) -> metric -> seed -> value
Runs = dict[tuple[str, int], dict[str, dict[int, float]]]


def load(directory: Path) -> tuple[Runs, dict[tuple[str, int], set[str]]]:
    """Metric values of every run in `directory`, and the per-layer metrics reported absent."""
    runs: Runs = defaultdict(lambda: defaultdict(dict))
    absent: dict[tuple[str, int], set[str]] = defaultdict(set)
    for path in sorted(p for p in directory.iterdir() if p.is_file()):
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        details = [line for line in lines if line.startswith("perfbench-detail ")]
        if not details:
            continue
        detail = json.loads(details[-1].split(" ", 1)[1])
        result = json.loads(lines[-1])
        key = (detail["workload"], detail["trace"])
        for name, metric in result["metrics"].items():
            runs[key][name][detail["seed"]] = metric["value"]
        for command, timing in detail.get("commands", {}).items():
            runs[key][f"detail.{command}_p50_s"][detail["seed"]] = timing["p50_s"]
        absent[key].update(detail.get("absent", []))
    return runs, absent


def _better(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(parent: dict[int, float], change: dict[int, float], better: str,
            bound: float) -> tuple[str, str]:
    """(verdict, pairs won) for one (metric, workload)."""
    p_q1, p_med, p_q3 = quartiles(list(parent.values()))
    _, c_med, _ = quartiles(list(change.values()))
    seeds = sorted(parent.keys() & change.keys())
    wins = sum(_better(change[s], parent[s], better) for s in seeds)
    won = f"{wins}/{len(seeds)}"
    worse_by = (c_med - p_med if better == "lower" else p_med - c_med) / abs(p_med)
    if (seeds and wins >= 0.9 * len(seeds) and _better(c_med, p_med, better)
            and abs(c_med - p_med) > p_q3 - p_q1):
        return "improved", won
    if worse_by > bound:
        return "worse", won
    all_better = all(_better(c, p, better) for c in change.values() for p in parent.values())
    if (p_q3 - p_q1) / abs(p_med) > bound and not all_better:
        return "unresolved", won
    return "no worse", won


def _fmt(values: dict[int, float]) -> str:
    q1, median, q3 = quartiles(list(values.values()))
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 1
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    sides = [load(Path(arg)) for arg in argv]
    keys = sorted(set().union(*(runs.keys() for runs, _ in sides)))
    for workload, trace in keys:
        print(f"\n{workload} ({'per-layer' if trace else 'end-to-end'})")
        series = [runs.get((workload, trace), {}) for runs, _ in sides]
        gone = set().union(*(absent.get((workload, trace), set()) for _, absent in sides))
        for name in [n for n in series[0] if len(series) == 1 or n in series[1]]:
            values = [s[name] for s in series]
            spec_metric = end_to_end.get(name)
            if len(values) == 1:
                line = f"  {name:30s} {_fmt(values[0]):40s} n={len(values[0])}"
                q1, median, q3 = quartiles(list(values[0].values()))
                if median:
                    line += f"  spread {(q3 - q1) / abs(median):.3f}"
                if spec_metric:
                    line += f"  bound {spec_metric['bound']}"
                print(line)
                continue
            p_med, c_med = (quartiles(list(v.values()))[1] for v in values)
            change = f"{(c_med - p_med) / abs(p_med):+.1%}" if p_med else "n/a"
            row = f"  {name:30s} {_fmt(values[0]):34s} -> {_fmt(values[1]):34s} {change:>8s}"
            if spec_metric and not trace:
                result, won = verdict(values[0], values[1], spec_metric["better"],
                                      spec_metric["bound"])
                row += f"  won {won:6s} {result}"
            elif name in gone:
                row += "  absent"
            print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
