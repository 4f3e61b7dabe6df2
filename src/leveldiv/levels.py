"""Tile-grid levels in the one-character-per-tile text format.

A level is a rectangular grid of printable tile symbols, one character per
tile, rows top to bottom. Parsing, serialization and level loading live
here, together with `LevelSet`, the named levels a command works on. A
level that does not parse raises `LevelDivError`; a file that cannot be
read raises `LevelIoError`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import LevelDivError, LevelIoError


@dataclass(frozen=True)
class TileGrid:
    """Immutable rectangular grid of tile symbols, stored as row strings."""

    rows: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise LevelDivError("grid must have at least one row")
        width = len(self.rows[0])
        if width == 0:
            raise LevelDivError("grid rows must not be empty")
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise LevelDivError(
                    f"row {i} has length {len(row)}, expected {width}"
                )
            for ch in row:
                if not ch.isprintable():
                    raise LevelDivError(
                        f"row {i} contains invalid tile symbol {ch!r}"
                    )

    @property
    def width(self) -> int:
        return len(self.rows[0])

    @property
    def height(self) -> int:
        return len(self.rows)

    @property
    def cells(self) -> str:
        """All cells in row-major order."""
        return "".join(self.rows)

    def crop(self, x: int, y: int, width: int, height: int) -> TileGrid:
        """Sub-grid with top-left corner (x, y)."""
        if x < 0 or y < 0 or x + width > self.width or y + height > self.height:
            raise ValueError(
                f"crop {width}x{height}@({x},{y}) outside {self.width}x{self.height} grid"
            )
        return TileGrid(tuple(row[x : x + width] for row in self.rows[y : y + height]))


def parse_level(text: str) -> TileGrid:
    """Parse level text: one character per tile, newline-separated rows.

    CR LF and lone CR line endings are read as newlines, as a text-mode file
    read does; a single trailing newline is accepted and stripped. Internal
    blank lines are ragged rows.
    """
    normalized = text.replace("\r\n", "\n").replace("\r", "\n")
    if normalized.endswith("\n"):
        normalized = normalized[:-1]
    if not normalized:
        raise LevelDivError("level text is empty")
    return TileGrid(tuple(normalized.split("\n")))


def serialize_level(grid: TileGrid) -> str:
    """Inverse of parse_level: rows joined by newline, no trailing newline."""
    return "\n".join(grid.rows)


@dataclass(frozen=True)
class LevelSet:
    """Named levels plus their tile symbols, in order of first occurrence."""

    levels: tuple[tuple[str, TileGrid], ...]
    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.levels]
        if len(set(names)) != len(names):
            raise LevelDivError(f"duplicate level names: {sorted(names)}")

    @classmethod
    def from_grids(cls, named_grids: Iterable[tuple[str, TileGrid]]) -> LevelSet:
        levels = tuple(named_grids)
        if not levels:
            raise LevelDivError("level set must contain at least one level")
        return cls(levels, tuple(dict.fromkeys("".join(grid.cells for _, grid in levels))))

    @property
    def names(self) -> list[str]:
        return [name for name, _ in self.levels]

    @property
    def grids(self) -> list[TileGrid]:
        return [grid for _, grid in self.levels]

    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self) -> Iterator[tuple[str, TileGrid]]:
        return iter(self.levels)


def _path_names(paths: Sequence[str], bases: Sequence[str], kind: str) -> list[str]:
    """Each path's base name, or the path as given where base names collide.

    Only a path given twice leaves two equal names, and that is an error.
    """
    names = [path if bases.count(base) > 1 else base for path, base in zip(paths, bases)]
    if len(set(names)) != len(names):
        raise LevelDivError(f"duplicate {kind} names: {sorted(names)}")
    return names


def decode_level(data: bytes, source: str) -> TileGrid:
    """Parse UTF-8 level bytes; a leading byte-order mark is dropped, errors name `source`."""
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise LevelDivError(
            f"{source}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc
    try:
        return parse_level(text)
    except LevelDivError as exc:
        raise LevelDivError(f"{source}: {exc}") from exc


def load_level(path: str | os.PathLike) -> TileGrid:
    """Read and parse one UTF-8 level file; a leading byte-order mark is dropped."""
    p = Path(path)
    try:
        data = p.read_bytes()
    except OSError as exc:
        raise LevelIoError(f"cannot read level file {p}: {exc}") from exc
    return decode_level(data, str(p))
