"""Command-line entry point.

Subcommands: patterns, analyze, evolve, cluster, compare, snippets. Exit
codes: 0 success, 1 usage error, 2 data error (parse, dims, cut), 3 I/O
error. Randomized commands print the effective seed on standard error, so
every run can be reproduced even when --seed was omitted.
"""

from __future__ import annotations

import argparse
import csv
# argparse imports locale (through gettext) whenever it builds a parser, so
# every command needs it: importing it here keeps that fixed cost in start-up.
import locale  # noqa: F401
import math
import secrets
import sys
from contextlib import contextmanager
from itertools import accumulate
from pathlib import Path
from typing import IO, Iterator, Sequence

from .analysis import average_linkage, compare_sets, cut_dendrogram, pairwise_matrix
from .divergence import (
    DivergenceConfig,
    contributions,
    fitness,
    write_contributions_csv,
)
from .errors import LevelDivError, LevelIoError
from .evolve import Conv, EvolutionConfig, Flip, hill_climb, snippet_fitness
from .levels import LevelSet, TileGrid, decode_level, load_level, serialize_level
from .patterns import (
    FilterDims,
    level_distributions,
    merge_distributions,
    write_frequency_csv,
)


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


def _epsilon_arg(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"epsilon must be in (0, 1], got {text}")
    return value


def _weight_arg(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"weight must be in [0, 1], got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text}")
    return value


def _read_level(path: str) -> TileGrid:
    if path == "-":
        return decode_level(sys.stdin.buffer.read(), "stdin")
    return load_level(path)


def _read_level_set(paths: Sequence[str]) -> LevelSet:
    """Levels named by file stem ('-' is stdin), or by the path given where stems clash."""
    stems = ["stdin" if p == "-" else Path(p).stem for p in paths]
    names = [p if stems.count(stem) > 1 else stem for p, stem in zip(paths, stems)]
    return LevelSet.from_grids([(name, _read_level(p)) for name, p in zip(names, paths)])


@contextmanager
def _open_out(path: str | None) -> Iterator[IO[str]]:
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as stream:
            yield stream


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
    with _open_out(args.out) as stream:
        write_frequency_csv(merged, stream)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    levels = ((path, _read_level(path)) for path in (args.p_level, args.q_level))
    p_dist, q_dist = level_distributions(levels, args.filter)
    result = fitness(p_dist, q_dist, _divergence_config(args))
    with _open_out(args.out) as stream:
        print(f"kl_p_q: {result.kl_p_q!r}", file=stream)
        print(f"kl_q_p: {result.kl_q_p!r}", file=stream)
        print(f"fitness: {result.fitness!r}", file=stream)
    if args.contributions is not None:
        report = contributions(p_dist, q_dist, args.epsilon)
        with _open_out(args.contributions) as stream:
            write_contributions_csv(report, stream, top=args.top)
    return 0


def _cmd_evolve(args: argparse.Namespace) -> int:
    training = _read_level_set(args.levels)
    seed = args.seed if args.seed is not None else secrets.randbits(64)
    print(f"seed: {seed}", file=sys.stderr)
    mutation = Flip(rate=args.flip_rate) if args.mutation == "flip" else Conv()
    config = EvolutionConfig(
        divergence=_divergence_config(args),
        target_width=args.width,
        target_height=args.height,
        budget=args.budget,
        mutation=mutation,
        seed=seed,
        accept_equal=args.accept_equal,
    )
    result = hill_climb(training, config)
    _note(args, f"final fitness {result.best_fitness!r} after {result.elapsed:.2f}s")
    with _open_out(args.out) as stream:
        stream.write(serialize_level(result.best) + "\n")
    if args.trace is not None:
        with _open_out(args.trace) as stream:
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(["eval_index", "candidate_fitness", "best_fitness"])
            # The best so far is the parent's fitness: a child beats it only
            # by beating the parent, and is then accepted.
            best = accumulate(result.trace, max)
            for index, (value, best_value) in enumerate(zip(result.trace, best)):
                writer.writerow([index, repr(value), repr(best_value)])
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    levels = _read_level_set(args.levels)
    matrix = pairwise_matrix(levels, _divergence_config(args), jobs=args.jobs)
    dendrogram = average_linkage(matrix)
    if args.matrix_out is not None:
        with _open_out(args.matrix_out) as stream:
            matrix.write_csv(stream)
    if args.dendrogram_out is not None:
        with _open_out(args.dendrogram_out) as stream:
            stream.write(dendrogram.to_json() + "\n")
    if args.newick_out is not None:
        with _open_out(args.newick_out) as stream:
            stream.write(dendrogram.newick() + "\n")
    with _open_out(args.out) as stream:
        if args.cut is None:
            matrix.write_csv(stream)
        else:
            labels = cut_dendrogram(dendrogram, args.cut)
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(["level", "cluster"])
            for name, label in zip(levels.names, labels):
                writer.writerow([name, label])
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    training = _read_level_set(args.training)
    filters = args.filters or [FilterDims(4, 4)]
    weights = args.weights or [0.5]
    table = compare_sets(
        training,
        args.dirs,
        filters,
        weights,
        epsilon=args.epsilon,
        jobs=args.jobs,
    )
    for name, skipped in zip(table.rows, table.skipped):
        if skipped:
            print(f"warning: skipped {skipped} unusable file(s) in {name}",
                  file=sys.stderr)
    with _open_out(args.out) as stream:
        table.write_csv(stream)
    return 0


def _cmd_snippets(args: argparse.Namespace) -> int:
    training = _read_level_set(args.levels)
    rows = snippet_fitness(training, args.width, _divergence_config(args))
    _note(args, f"{len(rows)} snippets of width {args.width}")
    with _open_out(args.out) as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["offset", "fitness"])
        for offset, value in rows:
            writer.writerow([offset, repr(value)])
    return 0


# -------------------------------------------------------------------- wiring


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="leveldiv",
        description="Tile-pattern divergence tools for 2-D game levels.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def common(p: _Parser, *, filtered: bool = True, weighted: bool = True) -> None:
        p.add_argument("--epsilon", type=_epsilon_arg, default=1e-5,
                       help="smoothing constant (default 1e-5)")
        if filtered:
            p.add_argument("--filter", type=_dims_arg, default=FilterDims(4, 4),
                           metavar="WxH", help="filter size (default 4x4)")
        if weighted:
            p.add_argument("--weight", type=_weight_arg, default=0.5,
                           help="asymmetry weight w in [0, 1] (default 0.5)")
        p.add_argument("--out", metavar="PATH",
                       help="write primary output here instead of stdout")
        p.add_argument("-v", "--verbose", action="count", default=0,
                       help="progress notes on stderr")

    p = sub.add_parser("patterns", help="pattern frequency CSV for levels")
    p.add_argument("levels", nargs="+", metavar="LEVEL",
                   help="level file ('-' reads stdin); several are merged")
    common(p, weighted=False)
    p.set_defaults(func=_cmd_patterns)

    p = sub.add_parser("analyze", help="divergence report between two levels")
    p.add_argument("p_level", metavar="P_LEVEL", help="distribution P (training side)")
    p.add_argument("q_level", metavar="Q_LEVEL", help="distribution Q (candidate side)")
    p.add_argument("--contributions", metavar="PATH",
                   help="also write per-pattern contributions of kl_p_q as CSV")
    p.add_argument("--top", type=_positive_int,
                   help="keep only the largest N contributions")
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("evolve", help="hill-climb a level against training data")
    p.add_argument("levels", nargs="+", metavar="TRAINING",
                   help="training level file(s), '-' reads stdin")
    p.add_argument("--budget", type=_positive_int, default=10_000,
                   help="fitness evaluations (default 10000)")
    p.add_argument("--width", type=_positive_int, default=30,
                   help="target level width (default 30)")
    p.add_argument("--height", type=_positive_int,
                   help="target level height (default: training height)")
    p.add_argument("--mutation", choices=("flip", "conv"), default="conv",
                   help="mutation operator (default conv)")
    p.add_argument("--flip-rate", type=_positive_float, default=3.0,
                   help="expected tile flips per application (default 3)")
    p.add_argument("--seed", type=int,
                   help="RNG seed; drawn from system entropy when omitted")
    p.add_argument("--accept-equal", action=argparse.BooleanOptionalAction,
                   default=True, help="accept equal-fitness children (default on)")
    p.add_argument("--trace", metavar="PATH",
                   help="write the per-evaluation fitness trace as CSV")
    common(p)
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
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="parallel worker processes (default 1)")
    common(p)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("compare", help="mean divergence of generated sets vs training")
    p.add_argument("dirs", nargs="+", metavar="DIR",
                   help="directories of generated levels, one row each")
    p.add_argument("--training", action="append", required=True, metavar="LEVEL",
                   help="training level file; repeat to merge several")
    p.add_argument("--filters", action="append", type=_dims_arg, metavar="WxH",
                   help="filter size; repeatable (default 4x4)")
    p.add_argument("--weights", action="append", type=_weight_arg, metavar="W",
                   help="asymmetry weight; repeatable (default 0.5)")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="parallel worker processes (default 1)")
    common(p, filtered=False, weighted=False)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("snippets", help="fitness of training-level snippets")
    p.add_argument("levels", nargs="+", metavar="TRAINING", help="training level file(s)")
    p.add_argument("--width", type=_positive_int, default=30,
                   help="snippet width in tiles (default 30)")
    common(p)
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
        return args.func(args)
    except BrokenPipeError:
        return 3
    except (LevelIoError, OSError) as exc:
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
