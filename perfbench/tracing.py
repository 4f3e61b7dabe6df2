"""Spans around leveldiv's public callables, installed by wrapping names at run time.

Every module of the package that binds a wrapped name gets the wrapper, so a
call is seen whichever module it goes through (`extract_distribution` is bound
in `patterns`, `evolve`, `analysis`, `cli` and the package itself). Each span
records name, start, end, parent span and operation id; spans stay in memory
until the run ends. A name that no module binds any more is reported as absent.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

# Span name -> function name.
FUNCTIONS = {
    "cli.dispatch": "dispatch",
    "levels.load": "load_level",
    "levels.parse": "parse_level",
    "patterns.extract": "extract_distribution",
    "patterns.merge": "merge_distributions",
    "divergence.kl_div": "kl_div",
    "divergence.fitness": "fitness",
    "divergence.contributions": "contributions",
    "evolve.hill_climb": "hill_climb",
    "evolve.snippet_fitness": "snippet_fitness",
    "analysis.pairwise": "pairwise_matrix",
    "analysis.linkage": "average_linkage",
    "analysis.cut": "cut_dendrogram",
    "analysis.compare": "compare_sets",
}
# Span name -> (class name, method name).
METHODS = {
    "evolve.apply": ("CandidateCounts", "apply"),
    "evolve.eval": ("FitnessEvaluator", "fitness_of"),
}


def _recounted(args: tuple) -> int:
    """Windows an edit overlaps, from its geometry: the windows `apply` recounts."""
    state, edit = args
    fw, fh = state.dims.width, state.dims.height
    xs = min(state.width - fw, edit.x + len(edit.rows[0]) - 1) - max(0, edit.x - fw + 1) + 1
    ys = min(state.height - fh, edit.y + len(edit.rows) - 1) - max(0, edit.y - fh + 1) + 1
    return xs * ys


# Span name -> (probe taken when the call returns, count made from it at the end).
# Probes must stay cheap: their cost lands in the caller's self time.
PROBES: dict[str, tuple[Callable[[tuple, Any], Any], Callable[[Any], int]]] = {
    "patterns.extract": (lambda args, result: result.total, int),
    "divergence.kl_div": (lambda args, result: len(args[0].counts), int),
    "divergence.contributions": (lambda args, result: len(args[0].counts), int),
    "evolve.apply": (lambda args, result: args, _recounted),
    "evolve.eval": (
        lambda args, result: len(args[0].training.counts) + len(args[1].counts), int
    ),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack = [-1]
        self.op = -1
        self.probes: dict[str, list] = defaultdict(list)
        self.unprobed: set[str] = set()
        self.absent: set[str] = set()
        self._wrappers: dict[int, Callable] = {}
        self._installed: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        probe = PROBES.get(name, (None,))[0]
        sink = self.probes[name]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (name, start, end, parent, tracer.op)
            if probe is not None:
                try:
                    sink.append(probe(args, result))
                except (AttributeError, IndexError, TypeError):
                    tracer.unprobed.add(name)
            return result

        return wrapper

    def _set(self, owner: Any, attr: str, original: Any, name: str) -> None:
        wrapper = self._wrappers.get(id(original))
        if wrapper is None:
            wrapper = self._wrappers[id(original)] = self._wrap(name, original)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every binding of the traced names in the loaded leveldiv modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "leveldiv" or n.startswith("leveldiv.")]
        for name, attr in FUNCTIONS.items():
            found = False
            for module in modules:
                value = vars(module).get(attr)
                if callable(value) and not isinstance(value, type):
                    self._set(module, attr, value, name)
                    found = True
            if not found:
                self.absent.add(name)
        for name, (class_name, attr) in METHODS.items():
            classes = {id(c): c for m in modules
                       if isinstance(c := vars(m).get(class_name), type)}
            owners = [c for c in classes.values() if callable(vars(c).get(attr))]
            for cls in owners:
                self._set(cls, attr, vars(cls)[attr], name)
            if not owners:
                self.absent.add(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def summary(self) -> tuple[dict[str, float], dict[str, int], dict[str, int]]:
        """(self seconds, calls, probe counts) per span name.

        Self time is a span's duration minus the part its child spans cover;
        children run inside their parent on one thread, so that is the sum of
        their durations.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - covered[index]
            calls[name] += 1
        counts = {
            name: sum(map(PROBES[name][1], values))
            for name, values in self.probes.items() if name in PROBES
        }
        return self_s, calls, counts

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, newline="") as stream:
            stream.write("span,name,start,end,parent,op\n")
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                stream.write(f"{index},{name},{start!r},{end!r},{parent},{op}\n")


# Per-layer metric -> span names it sums, by kind. Times and counts are per
# operation; ns_per_* divide a layer's self time by its unit of work.
SELF_TIMES = {
    "cli.self_s": ("cli.dispatch",),
    "levels.self_s": ("levels.load", "levels.parse"),
    "patterns.self_s": ("patterns.extract", "patterns.merge"),
    "divergence.self_s": ("divergence.kl_div", "divergence.fitness", "divergence.contributions"),
    "evolve.apply_self_s": ("evolve.apply",),
    "evolve.eval_self_s": ("evolve.eval",),
    "evolve.loop_self_s": ("evolve.hill_climb",),
    "evolve.snippet_self_s": ("evolve.snippet_fitness",),
    "analysis.pairwise_self_s": ("analysis.pairwise",),
    "analysis.linkage_self_s": ("analysis.linkage", "analysis.cut"),
    "analysis.compare_self_s": ("analysis.compare",),
}
CALLS = {
    "levels.parse_calls": ("levels.parse",),
    "evolve.apply_calls": ("evolve.apply",),
    "evolve.eval_calls": ("evolve.eval",),
}
COUNTS = {
    "patterns.windows": ("patterns.extract",),
    "divergence.terms": ("divergence.kl_div", "divergence.contributions"),
    "evolve.windows_recounted": ("evolve.apply",),
    "evolve.eval_terms": ("evolve.eval",),
}
NS_PER = {
    "patterns.ns_per_window": ("patterns.self_s", "patterns.windows"),
    "divergence.ns_per_term": ("divergence.self_s", "divergence.terms"),
    "evolve.ns_per_recount": ("evolve.apply_self_s", "evolve.windows_recounted"),
    "evolve.ns_per_eval_term": ("evolve.eval_self_s", "evolve.eval_terms"),
}


def layer_metrics(tracer: Tracer, ops: int) -> tuple[dict[str, float], list[str]]:
    """Per-operation layer metrics from the recorded spans, and the absent ones."""
    self_s, calls, counts = tracer.summary()
    metrics: dict[str, float] = {}
    absent = []
    for table, source, missing in (
        (SELF_TIMES, self_s, tracer.absent),
        (CALLS, calls, tracer.absent),
        (COUNTS, counts, tracer.absent | tracer.unprobed),
    ):
        for metric, names in table.items():
            metrics[metric] = sum(source.get(n, 0) for n in names) / ops
            if all(n in missing for n in names):
                absent.append(metric)
    for metric, (time_metric, count_metric) in NS_PER.items():
        work = metrics[count_metric]
        metrics[metric] = 1e9 * metrics[time_metric] / work if work else 0.0
        if time_metric in absent or count_metric in absent:
            absent.append(metric)
    return metrics, absent
