"""Command-line entry point.

Subcommands: patterns, analyze, evolve, cluster, compare, snippets. Exit
codes: 0 success, 1 usage error (ValueError), 2 data error (LevelDivError:
parse, dims, cut), 3 I/O error (OSError, which includes LevelIoError).
Randomized commands print the effective seed on standard error, so
every run can be reproduced even when --seed was omitted.
"""

from __future__ import annotations

import argparse
import csv
# argparse imports locale (through gettext) whenever it builds a parser, so
# every command needs it: importing it here keeps that fixed cost in start-up.
import locale  # noqa: F401
import os
import secrets
import sys
from contextlib import ExitStack, contextmanager
from itertools import chain, count
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence

from .analysis import average_linkage, compare_sets, cut_dendrogram, pairwise_matrix
from .divergence import DivergenceConfig, contributions, fitness
from .errors import LevelDivError
from .evolve import Conv, EvolutionConfig, Flip, hill_climb, snippet_fitness
from .levels import LevelSet, TileGrid, _path_names, decode_level, load_level, serialize_level
from .patterns import FilterDims, Pattern, level_distributions, merge_distributions


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _dims_arg(text: str) -> FilterDims:
    try:
        return FilterDims.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0  # reported below, as a value below 1 is
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _read_level(path: str) -> TileGrid:
    if path == "-":
        return decode_level(sys.stdin.buffer.read(), "stdin")
    return load_level(path)


def _read_level_set(paths: Sequence[str]) -> LevelSet:
    """Levels named by file stem ('-' is stdin), or by the path given where stems clash."""
    stems = ["stdin" if p == "-" else Path(p).stem for p in paths]
    names = _path_names(paths, stems, "level")
    return LevelSet.from_grids([(name, _read_level(p)) for name, p in zip(names, paths)])


@contextmanager
def _open_out(path: str | None) -> Iterator[IO[str]]:
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as stream:
            yield stream


class _CsvOut(ExitStack):
    """The one CSV dialect: a header row, then one row per `writerow` call; csv
    writes a float as its repr. The output opens with the first row, so a
    command that fails before it leaves no file (every table has a row)."""

    def __init__(self, path: str | None, header: Sequence):
        super().__init__()
        self.path, self.header = path, header

    def writerow(self, row: Sequence) -> None:
        """Open the output and write the header and the first row."""
        writer = csv.writer(self.enter_context(_open_out(self.path)), lineterminator="\n")
        writer.writerow(self.header)
        # Shadows this method, so later rows go straight to the writer.
        self.writerow = writer.writerow
        writer.writerow(row)


def _write_csv(path: str | None, header: Sequence, rows: Iterable[Sequence]) -> None:
    with _CsvOut(path, header) as out:
        for row in rows:
            out.writerow(row)


# Every flag that names an output file, by destination.
_OUTPUTS = ("out", "contributions", "trace", "matrix_out", "dendrogram_out", "newick_out")


def _check_outputs(args: argparse.Namespace) -> None:
    """Two output flags naming one file would leave only the last output
    written. Standard output (`-`) may be shared."""
    flags: dict[str, str] = {}
    for dest in _OUTPUTS:
        path = getattr(args, dest, None)
        if path is None or path == "-":
            continue
        flag = "--" + dest.replace("_", "-")
        first = flags.setdefault(os.path.realpath(path), flag)
        if first != flag:
            raise ValueError(f"{first} and {flag} name one file, {path}")


def _divergence_config(args: argparse.Namespace) -> DivergenceConfig:
    return DivergenceConfig(epsilon=args.epsilon, dims=args.filter, weight=args.weight)


def _note(args: argparse.Namespace, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


# ---------------------------------------------------------------- subcommands


def _cmd_patterns(args: argparse.Namespace) -> int:
    levels = ((path, _read_level(path)) for path in args.levels)
    merged = merge_distributions(level_distributions(levels, args.filter))
    _note(args, f"{merged.distinct} distinct {args.filter} patterns, total {merged.total}")
    # Most frequent first; ties broken by cell string.
    counts = sorted(merged.counts.items(), key=lambda item: (-item[1], item[0]))
    _write_csv(args.out, ["pattern_key", "count"],
               ((Pattern(merged.dims, cells).key, n) for cells, n in counts))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.top is not None and args.contributions is None:
        raise ValueError("--top trims the --contributions CSV, which was not asked for")
    config = _divergence_config(args)
    levels = ((path, _read_level(path)) for path in (args.p_level, args.q_level))
    p_dist, q_dist = level_distributions(levels, args.filter)
    result = fitness(p_dist, q_dist, config)
    with _open_out(args.out) as stream:
        print(f"kl_p_q: {result.kl_p_q!r}", file=stream)
        print(f"kl_q_p: {result.kl_q_p!r}", file=stream)
        print(f"fitness: {result.fitness!r}", file=stream)
    if args.contributions is not None:
        report = contributions(p_dist, q_dist, config.epsilon)[: args.top]
        _write_csv(args.contributions, ["pattern_key", "p_prime", "q_prime", "summand"],
                   ((e.pattern.key, e.p_prime, e.q_prime, e.summand) for e in report))
    return 0


def _trace_sink(out: _CsvOut) -> Callable[[float], None]:
    """A hill_climb sink writing each evaluation's trace row as it arrives.

    The best so far is the parent's fitness: a child beats it only by beating
    the parent, and is then accepted. It is kept as accumulate(trace, max)
    keeps it: the first value, then a later one only where it is greater.
    """
    index = count()
    best = None

    def sink(fitness: float) -> None:
        nonlocal best
        if best is None or fitness > best:
            best = fitness
        out.writerow((next(index), fitness, best))

    return sink


def _cmd_evolve(args: argparse.Namespace) -> int:
    if args.trace == "-" and args.out in (None, "-"):
        raise ValueError("--trace - streams to standard output, where the level goes "
                         "too; give --out FILE")
    seed = args.seed if args.seed is not None else secrets.randbits(64)
    flip = Flip(rate=args.flip_rate)  # built under conv too, so a bad rate is always an error
    config = EvolutionConfig(
        divergence=_divergence_config(args),
        target_width=args.width,
        target_height=args.height,
        budget=args.budget,
        mutation=flip if args.mutation == "flip" else Conv(),
        seed=seed,
    )
    training = _read_level_set(args.levels)
    if args.trace is None:
        result = hill_climb(training, config, sink=lambda fitness: None)
    else:
        with _CsvOut(args.trace, ["eval_index", "candidate_fitness", "best_fitness"]) as out:
            result = hill_climb(training, config, sink=_trace_sink(out))
    # Printed once the climb has run, so a rejected command line prints only its error.
    print(f"seed: {seed}", file=sys.stderr)
    _note(args, f"final fitness {result.best_fitness!r} after {result.elapsed:.2f}s")
    with _open_out(args.out) as stream:
        stream.write(serialize_level(result.best) + "\n")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    config = _divergence_config(args)
    levels = _read_level_set(args.levels)
    matrix = pairwise_matrix(levels, config)
    dendrogram = average_linkage(matrix)

    def write_matrix(path: str | None) -> None:
        _write_csv(path, ["level", *matrix.names],
                   ((name, *row) for name, row in zip(matrix.names, matrix.values)))

    if args.matrix_out is not None:
        write_matrix(args.matrix_out)
    if args.dendrogram_out is not None:
        with _open_out(args.dendrogram_out) as stream:
            stream.write(dendrogram.to_json() + "\n")
    if args.newick_out is not None:
        with _open_out(args.newick_out) as stream:
            stream.write(dendrogram.newick() + "\n")
    if args.cut is None:
        write_matrix(args.out)
    else:
        labels = cut_dendrogram(dendrogram, args.cut)
        _write_csv(args.out, ["level", "cluster"], zip(levels.names, labels))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    training = _read_level_set(args.training)
    filters = args.filters or [FilterDims(4, 4)]
    weights = args.weights or [0.5]
    table = compare_sets(training, args.dirs, filters, weights, epsilon=args.epsilon)
    for name, skipped in zip(table.rows, table.skipped):
        if skipped:
            print(f"warning: skipped {skipped} unusable file(s) in {name}",
                  file=sys.stderr)
    names = [table.column_name(dims, weight) for dims, weight in table.columns]
    header = ["generator", *chain.from_iterable((n, f"{n}_std", f"{n}_count") for n in names)]
    rows = (
        (name, *chain.from_iterable((c.mean, c.std, c.count) for c in cells))
        for name, cells in zip(table.rows, table.cells)
    )
    _write_csv(args.out, header, rows)
    return 0


def _cmd_snippets(args: argparse.Namespace) -> int:
    config = _divergence_config(args)
    rows = snippet_fitness(_read_level_set(args.levels), args.width, config)
    _note(args, f"{len(rows)} snippets of width {args.width}")
    _write_csv(args.out, ["offset", "fitness"], rows)
    return 0


# -------------------------------------------------------------------- wiring


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="leveldiv",
        description="Tile-pattern divergence tools for 2-D game levels.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def common(p: _Parser, *flags: str) -> None:
        if "epsilon" in flags:
            p.add_argument("--epsilon", type=float, default=1e-5,
                           help="smoothing constant (default 1e-5)")
        if "filter" in flags:
            p.add_argument("--filter", type=_dims_arg, default=FilterDims(4, 4),
                           metavar="WxH", help="filter size (default 4x4)")
        if "weight" in flags:
            p.add_argument("--weight", type=float, default=0.5,
                           help="asymmetry weight w in [0, 1] (default 0.5)")
        p.add_argument("--out", metavar="PATH",
                       help="write primary output here instead of stdout")
        if "verbose" in flags:
            p.add_argument("-v", "--verbose", action="count", default=0,
                           help="progress notes on stderr")

    p = sub.add_parser("patterns", help="pattern frequency CSV for levels")
    p.add_argument("levels", nargs="+", metavar="LEVEL",
                   help="level file ('-' reads stdin); several are merged")
    common(p, "filter", "verbose")
    p.set_defaults(func=_cmd_patterns)

    p = sub.add_parser("analyze", help="divergence report between two levels")
    p.add_argument("p_level", metavar="P_LEVEL", help="distribution P (training side)")
    p.add_argument("q_level", metavar="Q_LEVEL", help="distribution Q (candidate side)")
    p.add_argument("--contributions", metavar="PATH",
                   help="also write per-pattern contributions of kl_p_q as CSV")
    p.add_argument("--top", type=_positive_int,
                   help="keep only the largest N contributions")
    common(p, "epsilon", "filter", "weight")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("evolve", help="hill-climb a level against training data")
    p.add_argument("levels", nargs="+", metavar="TRAINING",
                   help="training level file(s), '-' reads stdin")
    p.add_argument("--budget", type=int, default=10_000,
                   help="fitness evaluations (default 10000)")
    p.add_argument("--width", type=_positive_int, default=30,
                   help="target level width (default 30)")
    p.add_argument("--height", type=_positive_int,
                   help="target level height (default: training height)")
    p.add_argument("--mutation", choices=("flip", "conv"), default="conv",
                   help="mutation operator (default conv)")
    p.add_argument("--flip-rate", type=float, default=3.0,
                   help="expected tile flips per application (default 3)")
    p.add_argument("--seed", type=int,
                   help="RNG seed; drawn from system entropy when omitted")
    p.add_argument("--trace", metavar="PATH",
                   help="write the per-evaluation fitness trace as CSV")
    common(p, "epsilon", "filter", "weight", "verbose")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("cluster", help="pairwise matrix and average-linkage tree")
    p.add_argument("levels", nargs="+", metavar="LEVEL", help="level files")
    p.add_argument("--cut", type=_positive_int, metavar="K",
                   help="emit a K-cluster labels CSV instead of the matrix")
    p.add_argument("--matrix-out", metavar="PATH", help="write the matrix CSV here")
    p.add_argument("--dendrogram-out", metavar="PATH",
                   help="write the merge tree as JSON here")
    p.add_argument("--newick-out", metavar="PATH",
                   help="write the merge tree in Newick format here")
    common(p, "epsilon", "filter", "weight")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("compare", help="mean divergence of generated sets vs training")
    p.add_argument("dirs", nargs="+", metavar="DIR",
                   help="directories of generated levels, one row each")
    p.add_argument("--training", action="append", required=True, metavar="LEVEL",
                   help="training level file; repeat to merge several")
    p.add_argument("--filters", action="append", type=_dims_arg, metavar="WxH",
                   help="filter size; repeatable (default 4x4)")
    p.add_argument("--weights", action="append", type=float, metavar="W",
                   help="asymmetry weight; repeatable (default 0.5)")
    common(p, "epsilon")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("snippets", help="fitness of training-level snippets")
    p.add_argument("levels", nargs="+", metavar="TRAINING", help="training level file(s)")
    p.add_argument("--width", type=_positive_int, default=30,
                   help="snippet width in tiles (default 30)")
    common(p, "epsilon", "filter", "weight", "verbose")
    p.set_defaults(func=_cmd_snippets)

    return parser


def dispatch(argv: Sequence[str] | None = None) -> int:
    """Run one command line and return the exit code instead of exiting."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        _check_outputs(args)
        return args.func(args)
    except BrokenPipeError:
        return 3
    except OSError as exc:
        print(f"leveldiv: i/o error: {exc}", file=sys.stderr)
        return 3
    except LevelDivError as exc:
        print(f"leveldiv: error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"leveldiv: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
