"""Sliding-window tile pattern extraction and empirical count distributions.

A pattern is the contents of a fixed-size window placed fully inside a grid
(stride 1, no wrap-around, no padding). Distributions map each distinct
pattern to its occurrence count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .errors import LevelDivError
from .levels import TileGrid


@dataclass(frozen=True)
class FilterDims:
    """Window width and height in tiles."""

    width: int
    height: int

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class Pattern:
    """One window's cells in row-major order."""

    dims: FilterDims
    cells: str

    def __post_init__(self) -> None:
        if len(self.cells) != self.dims.width * self.dims.height:
            raise ValueError(
                f"pattern cells length {len(self.cells)} != {self.dims.width}x{self.dims.height}"
            )

    @property
    def key(self) -> str:
        """Stable text key: dims header plus row-major cells."""
        return f"{self.dims}:{self.cells}"


def window_count(grid_width: int, grid_height: int, dims: FilterDims) -> int:
    """Number of window placements of `dims` inside a grid."""
    if dims.width > grid_width or dims.height > grid_height:
        raise LevelDivError(
            f"filter {dims} does not fit in {grid_width}x{grid_height} grid"
        )
    return (1 + grid_width - dims.width) * (1 + grid_height - dims.height)


@dataclass(frozen=True)
class PatternDistribution:
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


def _window_keys(rows: Sequence[str], xs: Iterable[int], dims: FilterDims) -> Iterator[str]:
    """Row-major keys of the windows of `dims` at columns `xs` of `rows`, column by column.

    Each column's strip joins the rows' slices [x, x + width), so the key of the
    window at row y is the one slice strip[y * width : (y + height) * width].
    """
    fw, fh = dims.width, dims.height
    spans = [slice(y * fw, (y + fh) * fw) for y in range(len(rows) - fh + 1)]
    return chain.from_iterable(
        map("".join([row[x : x + fw] for row in rows]).__getitem__, spans) for x in xs
    )


def extract_distribution(grid: TileGrid, dims: FilterDims) -> PatternDistribution:
    """Count every window of `dims` in `grid` (stride 1, windows fully inside)."""
    total = window_count(grid.width, grid.height, dims)
    counts = Counter(_window_keys(grid.rows, range(grid.width - dims.width + 1), dims))
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


def merge_distributions(dists: Iterable[PatternDistribution]) -> PatternDistribution:
    """Pattern-wise sum of counts; all inputs must share filter dims."""
    dims = None
    counts: dict[str, int] = {}
    total = 0
    for dist in dists:
        dims = dims or dist.dims
        if dist.dims != dims:
            raise LevelDivError(f"cannot merge {dist.dims} into {dims} distribution")
        for cells, count in dist.counts.items():
            counts[cells] = counts.get(cells, 0) + count
        total += dist.total
    if dims is None:
        raise LevelDivError("no distributions to merge")
    return PatternDistribution(dims, counts, total)

