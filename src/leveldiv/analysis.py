"""Corpus-level divergence tools.

Pairwise weighted-divergence matrices between levels, agglomerative clustering
with average linkage (plus dendrogram cutting and Newick export), and
mean-divergence tables comparing directories of generated levels against a
training set.
"""

from __future__ import annotations

import csv
import json
import os
import statistics
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Sequence

from .divergence import DivergenceConfig, kl_div, weighted_divergence
from .errors import (
    EmptyInputError,
    InvalidCutError,
    LevelDivError,
    LevelIoError,
    NegativeDistanceError,
)
from .levels import LevelSet, TileGrid, load_level
from .patterns import (
    FilterDims,
    PatternDistribution,
    level_distributions,
    merge_distributions,
    window_count,
)

# Symmetrized entries may dip this far below zero before it is treated as a
# smoothing pathology rather than rounding noise.
_NEGATIVE_TOLERANCE = -1e-9


_task: Callable[[Any], Any] | None = None  # set in each pool worker by _map


def _set_task(fn: Callable[[Any], Any]) -> None:
    global _task
    _task = fn


def _run_task(task: Any) -> Any:
    return _task(task)


def _map(fn: Callable[[Any, Any], Any], shared: Any, tasks: Sequence[Any], jobs: int) -> list:
    """fn(shared, task) over tasks, in order; in worker processes when more than one
    can be busy, each of which is sent `shared` once rather than with every task.

    Workers are capped by the task count and the CPU count, so `jobs` never
    starts idle processes. The pool module is imported only when a pool
    starts, which keeps its import time out of every serial command.
    """
    bound = partial(fn, shared)
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return list(map(bound, tasks))
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers, initializer=_set_task, initargs=(bound,))
    with pool:
        return list(pool.map(_run_task, tasks))


def _newick_label(name: str) -> str:
    """A leaf label, quoted when it holds whitespace or Newick punctuation."""
    if any(ch.isspace() or ch in "()[]':;," for ch in name):
        return "'" + name.replace("'", "''") + "'"
    return name


@dataclass(frozen=True)
class DistanceMatrix:
    """Weighted divergence d(i,j) = w*kl(i,j) + (1-w)*kl(j,i) between levels."""

    names: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]

    def __len__(self) -> int:
        return len(self.names)

    def symmetrized(self) -> list[list[float]]:
        """(d(i,j) + d(j,i)) / 2; identical to the raw values at w = 0.5."""
        n = len(self.names)
        return [
            [(self.values[i][j] + self.values[j][i]) / 2.0 for j in range(n)]
            for i in range(n)
        ]

    def write_csv(self, stream: IO[str]) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["level", *self.names])
        for name, row in zip(self.names, self.values):
            writer.writerow([name, *[repr(v) for v in row]])


@dataclass(frozen=True)
class DendrogramMerge:
    """One agglomeration step; ids < n are leaves, larger ids earlier merges."""

    cluster_a: int
    cluster_b: int
    height: float
    new_id: int


@dataclass(frozen=True)
class Dendrogram:
    leaves: tuple[str, ...]
    merges: tuple[DendrogramMerge, ...]

    def newick(self) -> str:
        """Ultrametric Newick string; leaves sit at half the merge height."""
        n = len(self.leaves)
        if not self.merges:
            return f"{_newick_label(self.leaves[0])};"
        height = {i: 0.0 for i in range(n)}
        children: dict[int, tuple[int, int]] = {}
        for merge in self.merges:
            children[merge.new_id] = (merge.cluster_a, merge.cluster_b)
            height[merge.new_id] = merge.height

        def render(node: int, parent_height: float) -> str:
            length = parent_height / 2.0 - height[node] / 2.0
            if node < n:
                return f"{_newick_label(self.leaves[node])}:{length:.12g}"
            a, b = children[node]
            inner = f"({render(a, height[node])},{render(b, height[node])})"
            return f"{inner}:{length:.12g}"

        root = self.merges[-1].new_id
        a, b = children[root]
        return f"({render(a, height[root])},{render(b, height[root])});"

    def to_json(self) -> str:
        return json.dumps(
            {
                "leaves": list(self.leaves),
                "merges": [
                    {
                        "a": m.cluster_a,
                        "b": m.cluster_b,
                        "height": m.height,
                        "id": m.new_id,
                    }
                    for m in self.merges
                ],
                "newick": self.newick(),
            },
            indent=2,
        )


def _directed_row(shared: tuple[list[PatternDistribution], float], i: int) -> list[float]:
    dists, epsilon = shared
    return [
        0.0 if i == j else kl_div(dists[i], dists[j], epsilon)
        for j in range(len(dists))
    ]


def pairwise_matrix(
    levels: LevelSet, config: DivergenceConfig, jobs: int = 1
) -> DistanceMatrix:
    """Weighted divergence between every ordered level pair; zero diagonal.

    Each level's distribution is extracted once and both directed divergences
    are computed per unordered pair. `jobs` > 1 spreads rows over processes;
    results are assembled in order either way.
    """
    if len(levels) < 2:
        raise EmptyInputError("pairwise matrix needs at least 2 levels")
    # Every level's counts stay alive here, so a pattern the levels share keeps one key string.
    keys: dict[str, str] = {}
    dists = []
    for dist in level_distributions(levels, config.dims):
        counts = {keys.setdefault(cells, cells): count for cells, count in dist.counts.items()}
        dists.append(PatternDistribution(dist.dims, counts, dist.total))
    del keys
    n = len(dists)
    directed = _map(_directed_row, (dists, config.epsilon), range(n), jobs)
    w = config.weight
    values = tuple(
        tuple(
            0.0 if i == j else weighted_divergence(directed[i][j], directed[j][i], w)
            for j in range(n)
        )
        for i in range(n)
    )
    return DistanceMatrix(tuple(levels.names), values)


def average_linkage(matrix: DistanceMatrix) -> Dendrogram:
    """Agglomerate with unweighted pair-group average linkage.

    The matrix is symmetrized first; inter-cluster distance is the arithmetic
    mean over all cross pairs. Ties pick the earliest pair in current cluster
    order, so the merge sequence is deterministic.
    """
    n = len(matrix)
    if n < 2:
        raise EmptyInputError("clustering needs at least 2 leaves")
    sym = matrix.symmetrized()
    for i in range(n):
        for j in range(i + 1, n):
            if sym[i][j] < _NEGATIVE_TOLERANCE:
                raise NegativeDistanceError(
                    f"symmetrized distance {sym[i][j]!r} between "
                    f"{matrix.names[i]} and {matrix.names[j]} is negative"
                )
    dist: dict[tuple[int, int], float] = {}
    for i in range(n):
        for j in range(i + 1, n):
            dist[(i, j)] = sym[i][j]
    size = {i: 1 for i in range(n)}
    active = list(range(n))
    merges = []
    next_id = n
    while len(active) > 1:
        best = None
        best_a = best_b = -1
        for ai in range(len(active)):
            for aj in range(ai + 1, len(active)):
                a, b = active[ai], active[aj]
                value = dist[(a, b) if a < b else (b, a)]
                if best is None or value < best:
                    best, best_a, best_b = value, a, b
        new = next_id
        next_id += 1
        for c in active:
            if c == best_a or c == best_b:
                continue
            d_a = dist[(c, best_a) if c < best_a else (best_a, c)]
            d_b = dist[(c, best_b) if c < best_b else (best_b, c)]
            dist[(c, new)] = (size[best_a] * d_a + size[best_b] * d_b) / (
                size[best_a] + size[best_b]
            )
        size[new] = size[best_a] + size[best_b]
        active.remove(best_a)
        active.remove(best_b)
        active.append(new)
        merges.append(DendrogramMerge(best_a, best_b, best, new))
    return Dendrogram(tuple(matrix.names), tuple(merges))


def cut_dendrogram(dendrogram: Dendrogram, k: int) -> list[int]:
    """Labels per leaf after undoing the last k-1 merges.

    Labels are cluster indices in order of first leaf appearance, so leaf 0
    always gets label 0.
    """
    n = len(dendrogram.leaves)
    if not 1 <= k <= n:
        raise InvalidCutError(f"cannot cut {n} leaves into {k} clusters")
    parent: dict[int, int] = {}
    for merge in dendrogram.merges[: n - k]:
        parent[merge.cluster_a] = merge.new_id
        parent[merge.cluster_b] = merge.new_id
    labels: dict[int, int] = {}
    out = []
    for leaf in range(n):
        root = leaf
        while root in parent:
            root = parent[root]
        if root not in labels:
            labels[root] = len(labels)
        out.append(labels[root])
    return out


@dataclass(frozen=True)
class HeatmapCell:
    mean: float
    std: float
    count: int


@dataclass(frozen=True)
class HeatmapTable:
    """Mean weighted divergence per generator (row) and (filter, weight) column."""

    rows: tuple[str, ...]
    columns: tuple[tuple[FilterDims, float], ...]
    cells: tuple[tuple[HeatmapCell, ...], ...]
    skipped: tuple[int, ...]

    @staticmethod
    def column_name(dims: FilterDims, weight: float) -> str:
        return f"{dims}_{weight:g}"

    def write_csv(self, stream: IO[str]) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        header = ["generator"]
        for dims, weight in self.columns:
            name = self.column_name(dims, weight)
            header.extend([name, f"{name}_std", f"{name}_count"])
        writer.writerow(header)
        for name, row in zip(self.rows, self.cells):
            out = [name]
            for cell in row:
                out.extend([repr(cell.mean), repr(cell.std), cell.count])
            writer.writerow(out)


def _load_directory(
    directory: str | os.PathLike, filters: Iterable[FilterDims]
) -> tuple[str, list[tuple[str, TileGrid]], int]:
    """(directory name, usable levels, files skipped); every filter fits a usable level."""
    path = Path(directory)
    try:
        files = sorted(p for p in path.iterdir() if p.is_file())
    except OSError as exc:
        raise LevelIoError(path, exc) from exc
    levels = []
    skipped = 0
    for file in files:
        try:
            grid = load_level(file)
            for dims in filters:
                window_count(grid.width, grid.height, dims)
        except LevelDivError:
            skipped += 1
        else:
            levels.append((file.name, grid))
    if not levels:
        raise EmptyInputError(f"no usable levels in directory {path}")
    return path.name, levels, skipped


def compare_sets(
    training: LevelSet,
    generated_dirs: Sequence[str | os.PathLike],
    filters: Sequence[FilterDims],
    weights: Sequence[float],
    epsilon: float = 1e-5,
    jobs: int = 1,
) -> HeatmapTable:
    """Score each directory of generated levels against the training set.

    For every (filter, weight) column the cell is the mean over the
    directory's levels of w*kl(P,Q) + (1-w)*kl(Q,P), with P the merged
    training distribution; std is population standard deviation and count the
    number of usable levels. Files that do not parse, are not UTF-8, or are
    smaller than any of the filters are skipped and tallied in `skipped`; a
    directory without any usable level is an error. Epsilon and weights are
    checked as DivergenceConfig checks them.
    """
    if not generated_dirs:
        raise EmptyInputError("no generated-level directories given")
    if not filters or not weights:
        raise EmptyInputError("need at least one filter and one weight")
    configs = [DivergenceConfig(epsilon, dims, float(w)) for dims in filters for w in weights]
    columns = tuple((config.dims, config.weight) for config in configs)
    training_dists = {
        dims: merge_distributions(level_distributions(training, dims))
        for dims in filters
    }
    loaded = _map(_compare_one_directory, (training_dists, epsilon), generated_dirs, jobs)
    rows = []
    cells = []
    skipped = []
    for name, directed, skip in loaded:
        row = []
        for dims, weight in columns:
            values = [weighted_divergence(pq, qp, weight) for pq, qp in directed[dims]]
            row.append(
                HeatmapCell(
                    statistics.fmean(values),
                    statistics.pstdev(values),
                    len(values),
                )
            )
        rows.append(name)
        cells.append(tuple(row))
        skipped.append(skip)
    return HeatmapTable(tuple(rows), columns, tuple(cells), tuple(skipped))


def _compare_one_directory(
    shared: tuple[dict[FilterDims, PatternDistribution], float],
    directory: str | os.PathLike,
) -> tuple[str, dict[FilterDims, list[tuple[float, float]]], int]:
    """Both directed divergences per level and filter for one directory."""
    training_dists, epsilon = shared
    name, levels, skipped = _load_directory(directory, training_dists)
    directed = {
        dims: [
            (kl_div(p, q, epsilon), kl_div(q, p, epsilon))
            for q in level_distributions(levels, dims)
        ]
        for dims, p in training_dists.items()
    }
    return name, directed, skipped
