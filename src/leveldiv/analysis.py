"""Corpus-level divergence tools.

Pairwise weighted-divergence matrices between levels, agglomerative clustering
with average linkage, and mean-divergence tables comparing directories of
generated levels against a training set. A dendrogram is its list of merges:
the Newick text, the JSON and the k-cluster cut each read that list in one
pass, in merge order.
"""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterable, Sequence

from .divergence import DivergenceConfig, kl_div, weighted_divergence
from .errors import LevelDivError, LevelIoError
from .levels import LevelSet, TileGrid, _path_names, load_level
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


@dataclass(frozen=True)
class DendrogramMerge:
    """One agglomeration step. Ids below n are leaves; merge k of a Dendrogram
    makes cluster n + k."""

    cluster_a: int
    cluster_b: int
    height: float


@dataclass(frozen=True)
class Dendrogram:
    """Leaf names and the merges that join them, in merge order; the merges
    are the one record of the tree."""

    leaves: tuple[str, ...]
    merges: tuple[DendrogramMerge, ...]

    def newick(self) -> str:
        """Ultrametric Newick string; leaves sit at half the merge height.

        Each merged cluster's text is built from its two children's, in merge
        order, without recursion, so a chained tree of any depth renders.
        """
        # Text and half height of each live cluster; merging pops its children.
        live = {i: (_newick_label(name), 0.0) for i, name in enumerate(self.leaves)}
        for new, merge in enumerate(self.merges, len(self.leaves)):
            half = merge.height / 2.0
            text_a, half_a = live.pop(merge.cluster_a)
            text_b, half_b = live.pop(merge.cluster_b)
            live[new] = (f"({text_a}:{half - half_a:.12g},{text_b}:{half - half_b:.12g})", half)
        [(root, _)] = live.values()
        return root + ";"

    def to_json(self) -> str:
        return json.dumps(
            {
                "leaves": list(self.leaves),
                "merges": [
                    {"a": m.cluster_a, "b": m.cluster_b, "height": m.height, "id": new}
                    for new, m in enumerate(self.merges, len(self.leaves))
                ],
                "newick": self.newick(),
            },
            indent=2,
        )


def pairwise_matrix(levels: LevelSet, config: DivergenceConfig) -> DistanceMatrix:
    """Weighted divergence between every ordered level pair; zero diagonal.

    Each level's distribution is extracted once and each directed divergence
    is computed once.
    """
    if len(levels) < 2:
        raise LevelDivError("pairwise matrix needs at least 2 levels")
    # Every level's counts stay alive here, so a pattern the levels share keeps one key string.
    keys: dict[str, str] = {}
    dists = []
    for dist in level_distributions(levels, config.dims):
        counts = {keys.setdefault(cells, cells): count for cells, count in dist.counts.items()}
        dists.append(PatternDistribution(dist.dims, counts, dist.total))
    del keys
    n = len(dists)
    directed = [
        [0.0 if i == j else kl_div(dists[i], dists[j], config.epsilon) for j in range(n)]
        for i in range(n)
    ]
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

    The distance between levels i and j is (d(i,j) + d(j,i)) / 2, which equals
    (kl(i,j) + kl(j,i)) / 2 for every weight w: the weight shapes the matrix,
    and moves the tree only through rounding. Inter-cluster distance is the
    arithmetic mean over all cross pairs. Ties pick the earliest pair in
    current cluster order, so the merge sequence is deterministic.
    """
    n = len(matrix)
    if n < 2:
        raise LevelDivError("clustering needs at least 2 leaves")
    values = matrix.values
    dist: dict[tuple[int, int], float] = {}
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = (values[i][j] + values[j][i]) / 2.0
            if dist[i, j] < _NEGATIVE_TOLERANCE:
                raise LevelDivError(
                    f"symmetrized distance {dist[i, j]!r} between "
                    f"{matrix.names[i]} and {matrix.names[j]} is negative"
                )
    size = {i: 1 for i in range(n)}
    # New ids are appended in increasing order, so `active` stays sorted.
    active = list(range(n))
    merges = []
    for new in range(n, 2 * n - 1):
        # min keeps the first of equal pairs, in current cluster order.
        best_a, best_b = min(combinations(active, 2), key=dist.__getitem__)
        for c in active:
            if c == best_a or c == best_b:
                continue
            d_a = dist[(c, best_a) if c < best_a else (best_a, c)]
            d_b = dist[(c, best_b) if c < best_b else (best_b, c)]
            dist[c, new] = (size[best_a] * d_a + size[best_b] * d_b) / (
                size[best_a] + size[best_b]
            )
        size[new] = size[best_a] + size[best_b]
        active.remove(best_a)
        active.remove(best_b)
        active.append(new)
        merges.append(DendrogramMerge(best_a, best_b, dist[best_a, best_b]))
    return Dendrogram(tuple(matrix.names), tuple(merges))


def cut_dendrogram(dendrogram: Dendrogram, k: int) -> list[int]:
    """Labels per leaf after undoing the last k-1 merges.

    Labels are cluster indices in order of first leaf appearance, so leaf 0
    always gets label 0.
    """
    n = len(dendrogram.leaves)
    if not 1 <= k <= n:
        raise LevelDivError(f"cannot cut {n} leaves into {k} clusters")
    parent: dict[int, int] = {}
    for new, merge in enumerate(dendrogram.merges[: n - k], n):
        parent[merge.cluster_a] = new
        parent[merge.cluster_b] = new
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


def _load_directory(
    directory: str | os.PathLike, filters: Iterable[FilterDims]
) -> tuple[list[tuple[str, TileGrid]], int]:
    """(usable levels, files skipped); every filter fits a usable level."""
    path = Path(directory)
    try:
        files = sorted(p for p in path.iterdir() if p.is_file())
    except OSError as exc:
        raise LevelIoError(f"cannot read level directory {path}: {exc}") from exc
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
        raise LevelDivError(f"no usable levels in directory {path}")
    return levels, skipped


def compare_sets(
    training: LevelSet,
    generated_dirs: Sequence[str | os.PathLike],
    filters: Sequence[FilterDims],
    weights: Sequence[float],
    epsilon: float = 1e-5,
) -> HeatmapTable:
    """Score each directory of generated levels against the training set.

    For every (filter, weight) column the cell is the mean over the
    directory's levels of w*kl(P,Q) + (1-w)*kl(Q,P), with P the merged
    training distribution; std is population standard deviation and count the
    number of usable levels. Rows are named by directory basename, or by the
    path as given where basenames collide; the same path twice is an error.
    Files that do not parse, are not UTF-8, or are smaller than any of the
    filters are skipped and tallied in `skipped`; a directory without any
    usable level is an error, and so is (LevelIoError) a file or directory
    that cannot be read. Epsilon and weights are checked as DivergenceConfig
    checks them, and two columns with one name are a ValueError.
    """
    if not generated_dirs:
        raise LevelDivError("no generated-level directories given")
    if not filters or not weights:
        raise LevelDivError("need at least one filter and one weight")
    configs = [DivergenceConfig(epsilon, dims, float(w)) for dims in filters for w in weights]
    columns = tuple((config.dims, config.weight) for config in configs)
    names = [HeatmapTable.column_name(dims, weight) for dims, weight in columns]
    for name in names:
        if names.count(name) > 1:
            raise ValueError(f"duplicate compare column {name}")
    paths = [os.fspath(directory) for directory in generated_dirs]
    rows = _path_names(paths, [os.path.basename(os.path.abspath(p)) for p in paths], "directory")
    training_dists = {
        dims: merge_distributions(level_distributions(training, dims))
        for dims in filters
    }
    loaded = []
    for path in paths:
        levels, skip = _load_directory(path, filters)
        # Both directions once per level and filter, shared by every weight.
        directed = {
            dims: [
                (kl_div(p, q, epsilon), kl_div(q, p, epsilon))
                for q in level_distributions(levels, dims)
            ]
            for dims, p in training_dists.items()
        }
        loaded.append((directed, skip))
    # Cells are built once every directory is scored: building them in between
    # left the statistics temporaries among the level loads, which measured
    # about 8 KiB more peak memory.
    cells = []
    skipped = []
    for directed, skip in loaded:
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
        cells.append(tuple(row))
        skipped.append(skip)
    return HeatmapTable(tuple(rows), columns, tuple(cells), tuple(skipped))
