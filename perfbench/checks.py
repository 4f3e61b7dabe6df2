"""Output checks of the benchmark's operations.

Each check returns a list of problems; an empty list means the output is
correct. The compare means are checked against a reference written here from
the definition (window counts, smoothed estimates, KL), independent of the
program's code paths.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections import Counter
from typing import Callable, Mapping, Sequence


def ref_counts(rows: Sequence[str], width: int, height: int) -> Counter:
    """Window-pattern counts of a grid, stride 1, windows fully inside."""
    counts: Counter = Counter()
    for y in range(len(rows) - height + 1):
        for x in range(len(rows[0]) - width + 1):
            counts[tuple(row[x : x + width] for row in rows[y : y + height])] += 1
    return counts


def ref_kl(p: Counter, q: Counter, epsilon: float) -> float:
    """Smoothed KL(P || Q) over the patterns of P."""
    p_total, q_total = sum(p.values()), sum(q.values())

    def smoothed(count: int, total: int) -> float:
        return (count + epsilon) / ((total + epsilon) * (1.0 + epsilon))

    return math.fsum(
        smoothed(c, p_total) * math.log(smoothed(c, p_total) / smoothed(q.get(k, 0), q_total))
        for k, c in p.items()
    )


def ref_weighted(p: Counter, q: Counter, epsilon: float, weight: float) -> float:
    return weight * ref_kl(p, q, epsilon) + (1.0 - weight) * ref_kl(q, p, epsilon)


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def check_exit(command: str, code: int) -> list[str]:
    return [] if code == 0 else [f"{command} exited with {code}"]


def check_level(text: str, width: int, height: int, alphabet: str) -> list[str]:
    rows = text.splitlines()
    problems = []
    if len(rows) != height or any(len(row) != width for row in rows):
        problems.append(f"level is not {width}x{height}")
    stray = set("".join(rows)) - set(alphabet)
    if stray:
        problems.append(f"level uses symbols outside the training alphabet: {sorted(stray)}")
    return problems


def check_trace(level_text: str, trace_text: str, budget: int,
                scratch_fitness: Callable[[list[str]], float]) -> list[str]:
    """The trace has one row per evaluation and ends on the level's from-scratch fitness."""
    rows = _csv_rows(trace_text)
    if rows[:1] != [["eval_index", "candidate_fitness", "best_fitness"]]:
        return ["trace header is wrong"]
    if len(rows) != budget + 2:
        return [f"trace has {len(rows) - 1} evaluations, expected {budget + 1}"]
    expected = repr(scratch_fitness(level_text.splitlines()))
    if rows[-1][2] != expected:
        return [f"trace ends on fitness {rows[-1][2]}, from scratch {expected}"]
    return []


def check_cluster(labels_text: str, families: Mapping[str, str]) -> list[str]:
    """The cut labels group the levels exactly by family."""
    rows = _csv_rows(labels_text)
    if rows[:1] != [["level", "cluster"]]:
        return ["labels header is wrong"]
    labelled = dict(rows[1:])
    if sorted(labelled) != sorted(families):
        return ["labels do not name every level once"]
    groups: dict[str, set[str]] = {}
    for name, label in labelled.items():
        groups.setdefault(label, set()).add(families[name])
    if len(groups) != len(set(families.values())) or any(len(f) != 1 for f in groups.values()):
        return [f"clusters mix families: {sorted(map(sorted, groups.values()))}"]
    return []


def check_compare(table_text: str, warnings_text: str,
                  expected: Sequence[tuple[str, int, int, Mapping[str, float]]]) -> list[str]:
    """Rows, counts, skipped-file warnings and means of a compare table.

    `expected` holds (directory name, valid files, ragged files, {column: mean}).
    """
    rows = _csv_rows(table_text)
    header, body = rows[0], rows[1:]
    if [row[0] for row in body] != [name for name, *_ in expected]:
        return ["compare rows do not match the directories"]
    problems = []
    warned = {
        name: int(count)
        for count, name in re.findall(r"skipped (\d+) .* in (\S+)$", warnings_text, re.M)
    }
    for row, (name, valid, ragged, means) in zip(body, expected):
        if warned.get(name, 0) != ragged:
            problems.append(f"{name}: warning says {warned.get(name, 0)} skipped, {ragged} ragged")
        for column, mean in means.items():
            try:
                count = int(row[header.index(f"{column}_count")])
                value = float(row[header.index(column)])
            except ValueError:
                problems.append(f"{name}: column {column} missing or unreadable")
                continue
            if count != valid:
                problems.append(f"{name} {column}: count {count}, expected {valid}")
            if not math.isclose(value, mean, rel_tol=1e-9, abs_tol=1e-9):
                problems.append(f"{name} {column}: mean {value!r}, from scratch {mean!r}")
    return problems


def check_snippets(table_text: str, offsets: int, samples: Mapping[int, str]) -> list[str]:
    """Row count, and the sampled rows' fitness against a from-scratch value."""
    rows = _csv_rows(table_text)[1:]
    if len(rows) != offsets:
        return [f"snippets has {len(rows)} rows, expected {offsets}"]
    return [
        f"snippet {offset}: {rows[offset]} != from scratch {expected}"
        for offset, expected in samples.items()
        if rows[offset] != [str(offset), expected]
    ]


def check_same(what: str, first: bytes, second: bytes) -> list[str]:
    return [] if first == second else [f"{what} differs between two runs of one seed"]
