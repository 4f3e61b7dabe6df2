"""Seeded inputs of the workloads.

Everything the program reads, apart from the bundled training levels, is made
here from the workload seed: the same seed gives the same files and the same
climb seeds. Inputs are read as plain text, without the program's parser.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# Tile-resample rates of the generated compare directories, from a copy of the
# corpus up to uniform random levels.
RESAMPLE_RATES = (0.0, 0.05, 0.2, 0.5, 1.0)
CUT_WIDTH = 30


def workload_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def read_rows(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


@dataclass(frozen=True)
class GeneratedDir:
    """One compare directory: its valid levels (as rows) and its ragged-file count."""

    path: Path
    levels: tuple[tuple[str, ...], ...]
    ragged: int


def _cut(rng: random.Random, corpus: list[list[str]], rate: float,
         alphabet: list[str]) -> list[str]:
    source = corpus[rng.randrange(len(corpus))]
    x = rng.randrange(len(source[0]) - CUT_WIDTH + 1)
    return [
        "".join(
            rng.choice(alphabet) if rng.random() < rate else ch
            for ch in row[x : x + CUT_WIDTH]
        )
        for row in source
    ]


def make_compare_dirs(root: Path, corpus_files: list[Path],
                      rng: random.Random) -> list[GeneratedDir]:
    """Directories of 30-wide levels cut from the corpus and perturbed, plus ragged files."""
    corpus = [read_rows(path) for path in corpus_files]
    alphabet = sorted({ch for rows in corpus for row in rows for ch in row})
    made = []
    for index, rate in enumerate(RESAMPLE_RATES):
        directory = root / f"gen{index}-rate{rate:g}"
        directory.mkdir(parents=True)
        valid = [True] * rng.randint(5, 7) + [False] * rng.randint(0, 2)
        rng.shuffle(valid)
        levels = []
        for number, is_valid in enumerate(valid):
            rows = _cut(rng, corpus, rate, alphabet)
            if is_valid:
                levels.append(tuple(rows))
            else:
                short = rng.randrange(len(rows))
                rows[short] = rows[short][: -1 - rng.randrange(3)]
            text = "\n".join(rows) + "\n"
            (directory / f"level-{number:02d}.txt").write_text(text, encoding="utf-8")
        made.append(GeneratedDir(directory, tuple(levels), valid.count(False)))
    return made
