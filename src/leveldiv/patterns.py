"""Sliding-window tile pattern extraction and empirical count distributions.

A pattern is the contents of a fixed-size window placed fully inside a grid
(stride 1, no wrap-around, no padding). Distributions map each distinct
pattern to its occurrence count.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import LevelDivError, record
from .levels import TileGrid


@record
class FilterDims(NamedTuple):
    """Window width and height in tiles."""

    width: int
    height: int

    def _check(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"filter dims must be >= 1, got {self.width}x{self.height}")

    @classmethod
    def parse(cls, text: str) -> FilterDims:
        """Parse the "WxH" flag syntax, e.g. "4x4"."""
        parts = text.lower().split("x")
        if len(parts) != 2:
            raise ValueError(f"expected WxH filter syntax, got {text!r}")
        try:
            return cls(int(parts[0]), int(parts[1]))
        except ValueError as exc:
            raise ValueError(f"expected WxH filter syntax, got {text!r}") from exc

    def __str__(self) -> str:
        return f"{self.width}x{self.height}"


def window_count(grid_width: int, grid_height: int, dims: FilterDims) -> int:
    """Number of window placements of `dims` inside a grid."""
    if dims.width > grid_width or dims.height > grid_height:
        raise LevelDivError(
            f"filter {dims} does not fit in {grid_width}x{grid_height} grid"
        )
    return (1 + grid_width - dims.width) * (1 + grid_height - dims.height)


class PatternDistribution(NamedTuple):
    """Occurrence counts of all window patterns of one size.

    `counts` maps row-major cell strings to counts >= 1; `total` is the
    number of windows counted (sum of counts).
    """

    dims: FilterDims
    counts: dict[str, int]
    total: int

    @property
    def distinct(self) -> int:
        return len(self.counts)


def _strips(rows: Sequence[str], x: int, n: int, width: int) -> list[str]:
    """The strips of the `n` window columns from `x`: strip c holds every row's
    cells [x + c, x + c + width), joined top to bottom.

    One block string is joined whose row (y, j) holds row y's cells
    [x + j, x + j + n), `width` slices per row, so strip c is the C-level
    strided slice `block[c::n]` and no Python step runs per column. At most
    the block string and its `n` strips are alive at once.
    """
    block = "".join([row[i : i + n] for row in rows for i in range(x, x + width)])
    return [block[c::n] for c in range(n)]


def _spans(dims: FilterDims, ys: Iterable[int]) -> list[slice]:
    """Slices of a strip holding the windows at rows `ys`: [y * width, (y + height) * width)."""
    return [slice(y * dims.width, (y + dims.height) * dims.width) for y in ys]


def _window_keys(strips: Iterable[str], dims: FilterDims, height: int) -> Iterator[str]:
    """Row-major keys of the windows in strips of `height` rows, strip by strip."""
    spans = _spans(dims, range(height - dims.height + 1))
    return chain.from_iterable(map(strip.__getitem__, spans) for strip in strips)


# Window columns counted per block. A block's strips are sliced from one block
# string, so counting memory does not grow with grid width; wider blocks count
# a little faster but measured more peak memory.
_BLOCK = 32


def _block_keys(rows: Sequence[str], dims: FilterDims) -> Iterator[Iterator[str]]:
    """Row-major keys of the windows in `rows`, one row band of one block of
    window columns at a time.

    Each block's strips come from `_strips`, so at most one block string and
    its `_BLOCK` strips are alive. A band's keys are one slice of each strip,
    so no Python step runs per window.
    """
    bands = [itemgetter(span) for span in _spans(dims, range(len(rows) - dims.height + 1))]
    columns = len(rows[0]) - dims.width + 1
    for x in range(0, columns, _BLOCK):
        strips = _strips(rows, x, min(_BLOCK, columns - x), dims.width)
        for band in bands:
            yield map(band, strips)


def extract_distribution(grid: TileGrid, dims: FilterDims) -> PatternDistribution:
    """Count every window of `dims` in `grid` (stride 1, windows fully inside).

    Windows are counted in blocks of `_BLOCK` columns, so at most one block
    string and its `_BLOCK` strips, each of `dims.width * grid.height` cells,
    are alive at once, whatever the grid's width.
    """
    total = window_count(grid.width, grid.height, dims)
    counts = Counter(chain.from_iterable(_block_keys(grid.rows, dims)))
    return PatternDistribution(dims, counts, total)


def level_distributions(
    levels: Iterable[tuple[str, TileGrid]], dims: FilterDims
) -> Iterator[PatternDistribution]:
    """Distributions of (name, grid) pairs, made as consumed; a misfit level is named."""
    for name, grid in levels:
        try:
            dist = extract_distribution(grid, dims)
        except LevelDivError as exc:
            raise LevelDivError(f"level {name}: {exc}") from exc
        yield dist
        # Free this level's counts before the next level is counted.
        del dist


def merge_distributions(dists: Iterable[PatternDistribution]) -> PatternDistribution:
    """Pattern-wise sum of counts; all inputs must share filter dims."""
    dims = None
    counts: dict[str, int] = {}
    total = 0
    for dist in dists:
        dims = dist.dims if dims is None else dims
        if dist.dims != dims:
            raise LevelDivError(f"cannot merge {dist.dims} into {dims} distribution")
        for cells, count in dist.counts.items():
            counts[cells] = counts.get(cells, 0) + count
        total += dist.total
        # Free this level's counts before the next level is counted.
        del dist
    if dims is None:
        raise LevelDivError("no distributions to merge")
    return PatternDistribution(dims, counts, total)

