"""Corpus-level divergence tools.

Pairwise weighted-divergence matrices between levels, agglomerative clustering
with average linkage, and mean-divergence tables comparing directories of
generated levels against a training set. The cluster matrix adds count-table
divergences with math.fsum; `compare_sets` scores levels on the climb's exact
training side, `evolve._Side`. A dendrogram is its list of merges:
the Newick text, the JSON and the k-cluster cut each read that list in one
pass, in merge order.
"""

from __future__ import annotations

import json
import os
import statistics
from itertools import combinations
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .divergence import (
    DivergenceConfig,
    _check_unseen,
    _divergences,
    _smoothed,
    _table,
    weighted_divergence,
)
from .errors import LevelDivError, LevelIoError, record
from .evolve import _Side
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


# No check, but @record's _make and _replace do not read the overridden __len__.
@record
class DistanceMatrix(NamedTuple):
    """Weighted divergence d(i,j) = w*kl(i,j) + (1-w)*kl(j,i) between levels."""

    names: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]

    def __len__(self) -> int:
        return len(self.names)


class DendrogramMerge(NamedTuple):
    """One agglomeration step. Ids below n are leaves; merge k of a Dendrogram
    makes cluster n + k."""

    cluster_a: int
    cluster_b: int
    height: float


@record
class Dendrogram(NamedTuple):
    """Leaf names and the merges that join them, in merge order; the merges
    are the one record of the tree."""

    leaves: tuple[str, ...]
    merges: tuple[DendrogramMerge, ...]

    def _check(self) -> None:
        n = len(self.leaves)
        # Each cluster but the root is merged once, after it is made: ids 0 to 2n - 3.
        made = sorted(c for new, (a, b, _) in enumerate(self.merges, n) for c in (a, b) if c < new)
        if not n or made != list(range(2 * n - 2)):
            raise LevelDivError(f"{len(self.merges)} merges do not join {n} leaves into one tree")

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

    Each level's distribution and divergence table are made once, and each
    unordered pair's two directed divergences come from one pass over the
    patterns the pair shares.
    """
    if len(levels) < 2:
        raise LevelDivError("pairwise matrix needs at least 2 levels")
    # Every level's counts stay alive here, so a pattern the levels share keeps one key string.
    keys: dict[str, str] = {}
    dists = []
    for dist in level_distributions(levels, config.dims):
        counts = {keys.setdefault(cells, cells): count for cells, count in dist.counts.items()}
        dists.append(PatternDistribution(dist.dims, counts, dist.total))
        # Free the level's own counts before the next level is counted.
        del dist
    del keys
    n = len(dists)
    tables = [_table(dist, config.epsilon) for dist in dists]
    # The ordered pairs (0, 1), ..., (0, n - 1), (1, 0) read the unseen P' of
    # levels 1 to n - 1 first, then level 0's.
    _check_unseen(*tables[1:], tables[0])
    directed = [[0.0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        directed[i][j], directed[j][i] = _divergences(tables[i], tables[j])
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


class HeatmapCell(NamedTuple):
    mean: float
    std: float
    count: int


class HeatmapTable(NamedTuple):
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
    p_dists = {dims: merge_distributions(level_distributions(training, dims)) for dims in filters}
    # Scoring reads only the merged counts; where the caller kept no reference
    # of its own, the training grids are freed before any directory is read.
    del training
    # One training side per filter and generated window total, for every directory.
    sides: dict[tuple[FilterDims, int], _Side] = {}

    def both_ways(q: PatternDistribution) -> tuple[float, float]:
        """kl(P, Q) and kl(Q, P) of one generated level; kl(P, Q) reads the
        level's unseen P', and kl(Q, P) then the training set's."""
        side = sides.get((q.dims, q.total))
        if side is None:
            p = p_dists[q.dims]
            side = sides[q.dims, q.total] = _Side(p, DivergenceConfig(epsilon, q.dims), q.total)
            _smoothed(0, p.total, epsilon)  # raises if the training set's unseen P' underflows
        sum_p_q, sum_q_p = side.sums(q.counts)
        unit = 1 << side.bits
        return sum_p_q / unit, sum_q_p / unit

    loaded = []
    for path in paths:
        levels, skip = _load_directory(path, filters)
        # Both directions once per level and filter, shared by every weight. A
        # map keeps no level once it is scored, so its counts are freed before
        # the next level is counted.
        directed = {dims: list(map(both_ways, level_distributions(levels, dims)))
                    for dims in filters}
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
