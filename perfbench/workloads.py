"""The benchmark's workloads: what one operation runs and how its output is checked.

Every operation goes through `leveldiv.cli.dispatch` in this process, so the
`cli` and `levels` layers sit on the measured path. Checks run after the
operation's clock has stopped.
"""

from __future__ import annotations

import io
import random
import statistics
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs

# The CLI's default smoothing, which every operation runs with.
EPSILON = 1e-5


@dataclass
class Outcome:
    """One operation: its time, its problems and what it produced."""

    seconds: float
    problems: list[str]
    # Fitness evaluations, and the seconds spent on them, for evals_per_s.
    evaluations: int = 0
    eval_seconds: float = 0.0
    divergences: list[float] = field(default_factory=list)
    bytes_out: int = 0
    commands: dict[str, float] = field(default_factory=dict)
    # Climbs only: (accepted, neutral, last improving evaluation, budget).
    search: tuple[int, int, int, int] | None = None
    outputs: tuple[bytes, ...] = ()


def call(argv: list[str]) -> tuple[int, float, str, int]:
    """Run one command line in-process: (exit code, seconds, stderr, stdout length)."""
    import leveldiv.cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        code = leveldiv.cli.dispatch(argv)
        seconds = time.perf_counter() - start
    return code, seconds, err.getvalue(), len(out.getvalue())


def _read(path: Path) -> bytes:
    return path.read_bytes() if path.exists() else b""


def _clear(paths: list[Path]) -> None:
    """Remove earlier outputs, so a command that writes nothing cannot pass on stale files."""
    for path in paths:
        path.unlink(missing_ok=True)


def _search_stats(trace_text: str) -> tuple[int, int, int, int]:
    """Accepted, neutral and last improving evaluation, from the trace CSV.

    Children that tie the parent are accepted, so the parent always holds the
    best fitness so far: a child is accepted when it is at least that best.
    """
    rows = trace_text.splitlines()[1:]
    best = float(rows[0].split(",")[2])
    accepted = neutral = last = 0
    for row in rows[1:]:
        index, candidate, _ = row.split(",")
        value = float(candidate)
        if value >= best:
            accepted += 1
            if value == best:
                neutral += 1
            else:
                best, last = value, int(index)
    return accepted, neutral, last, len(rows) - 1


class Climb:
    """`evolve` back to back on mario-1-1, one generated level per operation."""

    # Exponent of the machine-speed calibration, measured on climb-4x4 (speed.py).
    sensitivity = 0.6

    def __init__(self, smb: Path, flags: list[str], budget: int):
        self.training = smb / "mario-1-1.txt"
        self.flags = flags
        self.budget = budget
        self.dims_text = flags[flags.index("--filter") + 1]

    def prepare(self, work: Path, rng: random.Random) -> None:
        from leveldiv import DivergenceConfig, FilterDims, TileGrid
        from leveldiv import extract_distribution, fitness, load_level

        self.work = work
        self.rng = rng
        self.seeds: list[int] = []
        self.alphabet = "".join(sorted(set("".join(inputs.read_rows(self.training)))))
        dims = FilterDims.parse(self.dims_text)
        config = DivergenceConfig(epsilon=EPSILON, dims=dims)
        training = extract_distribution(load_level(self.training), dims)
        self.scratch_fitness = lambda rows: fitness(
            training, extract_distribution(TileGrid(tuple(rows)), dims), config
        ).fitness

    def argv(self, seed: int, budget: int, out: Path) -> list[str]:
        return [
            "evolve", str(self.training), *self.flags, "--width", "30", "--height", "14",
            "--budget", str(budget), "--seed", str(seed),
            "--out", str(out / "level.txt"), "--trace", str(out / "trace.csv"),
        ]

    def setup_args(self) -> list[str]:
        return self.argv(0, 1, self.work / "setup")

    def seed(self, index: int) -> int:
        while len(self.seeds) <= index:
            self.seeds.append(self.rng.randrange(2**32))
        return self.seeds[index]

    def warm_up(self) -> None:
        call(self.argv(self.rng.randrange(2**32), min(self.budget, 200), self.work))

    @staticmethod
    def output_paths(out: Path) -> list[Path]:
        return [out / "level.txt", out / "trace.csv"]

    def run(self, index: int) -> Outcome:
        paths = self.output_paths(self.work)
        _clear(paths)
        code, seconds, _, stdout_len = call(self.argv(self.seed(index), self.budget, self.work))
        level, trace = map(_read, paths)
        outcome = Outcome(seconds, checks.check_exit("evolve", code),
                          bytes_out=stdout_len + len(level) + len(trace),
                          outputs=(level, trace))
        if outcome.problems:
            return outcome
        level_text, trace_text = level.decode(), trace.decode()
        outcome.problems = checks.check_level(level_text, 30, 14, self.alphabet)
        outcome.problems += checks.check_trace(
            level_text, trace_text, self.budget, self.scratch_fitness
        )
        if not outcome.problems:
            outcome.search = _search_stats(trace_text)
            outcome.evaluations = self.budget + 1
            outcome.eval_seconds = seconds
            outcome.divergences = [-float(trace_text.rsplit(",", 1)[1])]
        return outcome

    def child_runs(self, first: Outcome) -> list[tuple[list[str], list[tuple[Path, bytes]]]]:
        """Fresh-interpreter rerun of the first operation's seed, with its expected outputs."""
        out = self.work / "child"
        return [(self.argv(self.seed(0), self.budget, out),
                 list(zip(self.output_paths(out), first.outputs)))]


# Level families of the bundled corpus, which a 3-cluster cut must recover.
FAMILIES = {
    "mario-1-1": "overworld", "mario-1-2": "underground", "mario-1-3": "athletic",
    "mario-2-1": "overworld", "mario-3-1": "overworld", "mario-3-3": "athletic",
    "mario-4-1": "overworld", "mario-4-2": "underground", "mario-5-1": "overworld",
    "mario-5-3": "athletic", "mario-6-1": "overworld", "mario-6-2": "overworld",
    "mario-6-3": "athletic", "mario-7-1": "overworld", "mario-8-1": "overworld",
}
COMPARE_FILTERS = ("2x2", "4x4")
SNIPPET_WIDTH = 30
SNIPPET_SAMPLES = 5


class Corpus:
    """`cluster`, `compare` and `snippets` in a fixed cycle; one cycle per operation."""

    # Exponent of the machine-speed calibration, measured on corpus (speed.py).
    sensitivity = 0.85

    def __init__(self, smb: Path):
        self.levels = [smb / f"{name}.txt" for name in sorted(FAMILIES)]
        self.snippet_level = smb / "mario-1-1.txt"

    def prepare(self, work: Path, rng: random.Random) -> None:
        from leveldiv import DivergenceConfig, FilterDims, extract_distribution
        from leveldiv import fitness, load_level

        self.work = work
        self.dirs = inputs.make_compare_dirs(work / "generated", self.levels, rng)
        corpus_rows = [inputs.read_rows(path) for path in self.levels]
        sizes = {text: tuple(map(int, text.split("x"))) for text in COMPARE_FILTERS}
        training = {
            text: sum((checks.ref_counts(rows, *size) for rows in corpus_rows), Counter())
            for text, size in sizes.items()
        }
        self.expected_compare = []
        for generated in self.dirs:
            means = {
                f"{text}_0.5": statistics.fmean(
                    checks.ref_weighted(training[text], checks.ref_counts(level, *size),
                                        EPSILON, 0.5)
                    for level in generated.levels
                )
                for text, size in sizes.items()
            }
            self.expected_compare.append(
                (generated.path.name, len(generated.levels), generated.ragged, means)
            )
        grid = load_level(self.snippet_level)
        dims = FilterDims(4, 4)
        config = DivergenceConfig(epsilon=EPSILON, dims=dims)
        whole = extract_distribution(grid, dims)
        self.snippet_offsets = grid.width - SNIPPET_WIDTH + 1
        self.snippet_samples = {
            offset: repr(fitness(
                whole,
                extract_distribution(grid.crop(offset, 0, SNIPPET_WIDTH, grid.height), dims),
                config,
            ).fitness)
            for offset in sorted(rng.sample(range(self.snippet_offsets), SNIPPET_SAMPLES))
        }
        # The (level, filter) pairs one compare command scores.
        self.compare_pairs = len(COMPARE_FILTERS) * sum(len(d.levels) for d in self.dirs)

    def commands(self, out: Path) -> dict[str, list[str]]:
        compare = [str(d.path) for d in self.dirs]
        for path in self.levels:
            compare += ["--training", str(path)]
        for text in COMPARE_FILTERS:
            compare += ["--filters", text]
        return {
            "cluster": ["cluster", *map(str, self.levels), "--filter", "4x4", "--cut", "3",
                        "--out", str(out / "labels.csv")],
            "compare": ["compare", *compare, "--out", str(out / "compare.csv")],
            "snippets": ["snippets", str(self.snippet_level), "--width", str(SNIPPET_WIDTH),
                         "--filter", "4x4", "--out", str(out / "snippets.csv")],
        }

    def setup_args(self) -> list[str]:
        return ["cluster", *map(str, self.levels[:2]), "--filter", "4x4",
                "--out", str(self.work / "setup-labels.csv")]

    def warm_up(self) -> None:
        self.run(-1)

    @staticmethod
    def output_paths(out: Path) -> list[Path]:
        return [out / "labels.csv", out / "compare.csv", out / "snippets.csv"]

    def run(self, index: int) -> Outcome:
        outcome = Outcome(0.0, [])
        warnings = ""
        paths = self.output_paths(self.work)
        _clear(paths)
        for name, argv in self.commands(self.work).items():
            code, seconds, stderr, stdout_len = call(argv)
            outcome.commands[name] = seconds
            outcome.seconds += seconds
            outcome.bytes_out += stdout_len
            outcome.problems += checks.check_exit(name, code)
            if name == "compare":
                warnings = stderr
        outcome.outputs = tuple(map(_read, paths))
        outcome.bytes_out += sum(map(len, outcome.outputs))
        if outcome.problems:
            return outcome
        labels, table, snippets = (data.decode() for data in outcome.outputs)
        outcome.problems = (
            checks.check_cluster(labels, FAMILIES)
            + checks.check_compare(table, warnings, self.expected_compare)
            + checks.check_snippets(snippets, self.snippet_offsets, self.snippet_samples)
        )
        if not outcome.problems:
            outcome.evaluations = self.compare_pairs
            outcome.eval_seconds = outcome.commands["compare"]
            header, *rows = (line.split(",") for line in table.splitlines())
            columns = [header.index(f"{text}_0.5") for text in COMPARE_FILTERS]
            outcome.divergences = [float(row[i]) for row in rows for i in columns]
        return outcome

    def child_runs(self, first: Outcome) -> list[tuple[list[str], list[tuple[Path, bytes]]]]:
        """Each command of the first cycle in a fresh interpreter, with its expected output."""
        out = self.work / "child"
        return [
            (argv, [(path, expected)])
            for argv, path, expected in zip(
                self.commands(out).values(), self.output_paths(out), first.outputs
            )
        ]
