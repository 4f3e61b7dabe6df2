"""Smoothed KL divergence between pattern distributions and the fitness built on it.

The probability of a pattern with count C(x) out of C windows is estimated as
P'(x) = (C(x) + eps) / ((C + eps)(1 + eps)), which keeps log ratios finite when
a pattern is missing from one side. The divergence sums P'(x) * log(P'(x)/Q'(x))
over the patterns of the first distribution only; patterns private to the second
contribute nothing. Natural logarithm throughout. The estimates are used as is,
without renormalization, so they sum to slightly more or less than one.

A summand depends only on the pattern's pair of counts, (C_p(x), C_q(x)). Each
distribution gets one table: (P', log P') of every count it holds and of 0, and
how many of its patterns hold each count. Two tables give both directions at
once: the patterns the two sides share are counted by count pair, a pattern
only one side holds pairs its count with 0, and each distinct pair's summand is
computed once and added once per pattern that has it. The sum is math.fsum,
which is correctly rounded, so it is the same bits in any grouping or order.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, repeat
from typing import Iterable, NamedTuple

from .errors import LevelDivError, record
from .patterns import FilterDims, PatternDistribution


@record
class DivergenceConfig(NamedTuple):
    """The three knobs of the measure: smoothing, window size, direction weight."""

    epsilon: float = 1e-5
    dims: FilterDims = FilterDims(4, 4)
    weight: float = 0.5

    def _check(self) -> None:
        _check_epsilon(self.epsilon)
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"weight must be in [0, 1], got {self.weight}")


class DivergenceResult(NamedTuple):
    """Both directed divergences plus the weighted fitness combining them."""

    kl_p_q: float
    kl_q_p: float
    fitness: float


class ContributionEntry(NamedTuple):
    cells: str
    p_prime: float
    q_prime: float
    summand: float


def _check_epsilon(epsilon: float) -> None:
    """The one rule for the smoothing constant: 0 < epsilon <= 1, so not nan or inf."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")


def weighted_divergence(kl_p_q: float, kl_q_p: float, weight: float) -> float:
    """Mix of the two directions, w * kl_p_q + (1 - w) * kl_q_p; fitness is its negation."""
    return weight * kl_p_q + (1.0 - weight) * kl_q_p


def _smoothed(count: int, total: int, epsilon: float) -> tuple[float, float]:
    """P' and log P' of a pattern seen `count` times out of `total` windows."""
    prob = (count + epsilon) / ((total + epsilon) * (1.0 + epsilon))
    if prob == 0.0:
        raise ValueError(
            f"epsilon {epsilon!r} is too small for a window total of {total}: P' underflows to 0"
        )
    return prob, math.log(prob)


def _summand(p: tuple[float, float], q: tuple[float, float]) -> float:
    """P'(x) * log(P'(x) / Q'(x)), from the _smoothed pairs of one pattern."""
    return p[0] * (p[1] - q[1])


class _Table(NamedTuple):
    """What the divergences read of one distribution: its count map, (P', log P')
    of each count it holds and of 0, and how many of its patterns hold each count.

    If P' of an unseen pattern underflows, its entry is (0.0, -inf), so a
    summand that reads it is +inf, and `underflow` holds the error, which
    `_check_unseen` raises where a measure reads that entry.
    """

    counts: dict[str, int]
    smoothed: dict[int, tuple[float, float]]
    seen: Counter[int]
    underflow: ValueError | None


def _table(dist: PatternDistribution, epsilon: float) -> _Table:
    seen = Counter(dist.counts.values())
    smoothed = {count: _smoothed(count, dist.total, epsilon) for count in seen}
    underflow = None
    try:
        smoothed[0] = _smoothed(0, dist.total, epsilon)
    except ValueError as exc:
        smoothed[0], underflow = (0.0, -math.inf), exc
    return _Table(dist.counts, smoothed, seen, underflow)


def _check_unseen(*tables: _Table) -> None:
    """Raise the first of these tables' underflows, in the order given."""
    for table in tables:
        if table.underflow is not None:
            raise table.underflow


def _tables(
    p: PatternDistribution, q: PatternDistribution, epsilon: float
) -> tuple[_Table, _Table]:
    """The tables of p and q, checked as the divergence of q from p reads them."""
    if p.dims != q.dims:
        raise LevelDivError(f"cannot compare {p.dims} against {q.dims} patterns")
    if not p.counts:
        raise LevelDivError("first distribution has no patterns")
    _check_epsilon(epsilon)
    p_table, q_table = _table(p, epsilon), _table(q, epsilon)
    _check_unseen(q_table)
    return p_table, q_table


def _divergences(p: _Table, q: _Table) -> tuple[float, float]:
    """kl(p, q) and kl(q, p), each a math.fsum of one summand per pattern of its
    first side.

    The shared patterns come from one key intersection, which walks the smaller
    map, and are counted by (p count, q count) pair. A pattern only one side
    holds pairs its count with 0; how many do, per count, is that side's tally
    less its shared patterns. Each distinct pair's summand is computed once and
    repeated once per pattern that has it.
    """
    p_counts, q_counts = p.counts, q.counts
    common = p_counts.keys() & q_counts.keys()
    shared = Counter(zip(map(p_counts.__getitem__, common), map(q_counts.__getitem__, common)))
    p_only, q_only = dict(p.seen), dict(q.seen)
    for (p_count, q_count), n in shared.items():
        p_only[p_count] -= n
        q_only[q_count] -= n
    p_pairs = chain(shared.items(), (((count, 0), n) for count, n in p_only.items() if n))
    q_pairs = chain(
        (((q_count, p_count), n) for (p_count, q_count), n in shared.items()),
        (((count, 0), n) for count, n in q_only.items() if n),
    )
    return _sum(p_pairs, p.smoothed, q.smoothed), _sum(q_pairs, q.smoothed, p.smoothed)


def _sum(
    pairs: Iterable[tuple[tuple[int, int], int]],
    first: dict[int, tuple[float, float]],
    second: dict[int, tuple[float, float]],
) -> float:
    """math.fsum of each (first count, second count) pair's summand, n times over."""
    return math.fsum(
        chain.from_iterable(
            repeat(_summand(first[a], second[b]), n) for (a, b), n in pairs
        )
    )


def kl_div(p: PatternDistribution, q: PatternDistribution, epsilon: float) -> float:
    """Directed divergence of q from p, over the patterns of p only.

    The sum is correctly rounded (math.fsum), so it does not depend on the
    order of the count maps; kl_div(p, p) is exactly 0 because every log
    ratio is 0.
    """
    return _divergences(*_tables(p, q, epsilon))[0]


def fitness(
    p: PatternDistribution, q: PatternDistribution, config: DivergenceConfig
) -> DivergenceResult:
    """Both directed divergences and their weighted fitness, per `config`."""
    if p.dims != config.dims:
        raise LevelDivError(
            f"distributions carry {p.dims} patterns but config expects {config.dims}"
        )
    p_table, q_table = _tables(p, q, config.epsilon)
    # The reverse direction's checks: q is its first distribution.
    if not q.counts:
        raise LevelDivError("first distribution has no patterns")
    _check_unseen(p_table)
    kl_p_q, kl_q_p = _divergences(p_table, q_table)
    return DivergenceResult(
        kl_p_q, kl_q_p, -weighted_divergence(kl_p_q, kl_q_p, config.weight)
    )


def contributions(
    p: PatternDistribution, q: PatternDistribution, epsilon: float
) -> tuple[ContributionEntry, ...]:
    """Break kl_div(p, q) into per-pattern summands, largest (most anomalous) first.

    Ties are broken by cells, so the report order is deterministic.
    """
    p_table, q_table = _tables(p, q, epsilon)
    p_smoothed, q_smoothed, q_get = p_table.smoothed, q_table.smoothed, q.counts.get
    entries = []
    for cells, count in p.counts.items():
        p_side, q_side = p_smoothed[count], q_smoothed[q_get(cells, 0)]
        summand = _summand(p_side, q_side)
        entries.append(ContributionEntry(cells, p_side[0], q_side[0], summand))
    entries.sort(key=lambda entry: (-entry.summand, entry.cells))
    return tuple(entries)
