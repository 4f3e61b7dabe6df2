"""Smoothed KL divergence between pattern distributions and the fitness built on it.

The probability of a pattern with count C(x) out of C windows is estimated as
P'(x) = (C(x) + eps) / ((C + eps)(1 + eps)), which keeps log ratios finite when
a pattern is missing from one side. The divergence sums P'(x) * log(P'(x)/Q'(x))
over the patterns of the first distribution only; patterns private to the second
contribute nothing. Natural logarithm throughout. The estimates are used as is,
without renormalization, so they sum to slightly more or less than one.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import repeat
from typing import IO, Iterator, Sequence

from .errors import DimsMismatchError, EmptyDistributionError
from .patterns import FilterDims, Pattern, PatternDistribution


@dataclass(frozen=True)
class DivergenceConfig:
    """The three knobs of the measure: smoothing, window size, direction weight."""

    epsilon: float = 1e-5
    dims: FilterDims = FilterDims(4, 4)
    weight: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in (0, 1], got {self.epsilon}")
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"weight must be in [0, 1], got {self.weight}")


@dataclass(frozen=True)
class DivergenceResult:
    """Both directed divergences plus the weighted fitness combining them."""

    kl_p_q: float
    kl_q_p: float
    fitness: float


@dataclass(frozen=True)
class ContributionEntry:
    pattern: Pattern
    p_prime: float
    q_prime: float
    summand: float


def smoothed_prob(count: int, total: int, epsilon: float) -> float:
    """Probability estimate for a pattern seen `count` times out of `total` windows."""
    return (count + epsilon) / ((total + epsilon) * (1.0 + epsilon))


def weighted_divergence(kl_p_q: float, kl_q_p: float, weight: float) -> float:
    """Mix of the two directions, w * kl_p_q + (1 - w) * kl_q_p; fitness is its negation."""
    return weight * kl_p_q + (1.0 - weight) * kl_q_p


def _smoothed(count: int, total: int, epsilon: float) -> tuple[float, float]:
    """P' and log P' of a pattern seen `count` times out of `total` windows."""
    prob = smoothed_prob(count, total, epsilon)
    return prob, math.log(prob)


def _summand(p: tuple[float, float], q: tuple[float, float]) -> float:
    """P'(x) * log(P'(x) / Q'(x)), from the _smoothed pairs of one pattern."""
    return p[0] * (p[1] - q[1])


def _sides(p: PatternDistribution, q: PatternDistribution, epsilon: float) -> tuple[Iterator, ...]:
    """(P', log P') and (Q', log Q') of each pattern of p, in count-map order;
    patterns seen equally often share them."""
    if p.dims != q.dims:
        raise DimsMismatchError(f"cannot compare {p.dims} against {q.dims} patterns")
    if not p.counts:
        raise EmptyDistributionError("first distribution has no patterns")
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    p_smoothed = {c: _smoothed(c, p.total, epsilon) for c in set(p.counts.values())}
    q_smoothed = {c: _smoothed(c, q.total, epsilon) for c in {0, *q.counts.values()}}
    q_counts = map(q.counts.get, p.counts, repeat(0))
    return map(p_smoothed.__getitem__, p.counts.values()), map(q_smoothed.__getitem__, q_counts)


def kl_div(p: PatternDistribution, q: PatternDistribution, epsilon: float) -> float:
    """Directed divergence of q from p, over the patterns of p only.

    The sum is correctly rounded (math.fsum), so it does not depend on the
    order of the count maps; kl_div(p, p) is exactly 0 because every log
    ratio is 0.
    """
    return math.fsum(map(_summand, *_sides(p, q, epsilon)))


def fitness(
    p: PatternDistribution, q: PatternDistribution, config: DivergenceConfig
) -> DivergenceResult:
    """Both directed divergences and their weighted fitness, per `config`."""
    if p.dims != config.dims:
        raise DimsMismatchError(
            f"distributions carry {p.dims} patterns but config expects {config.dims}"
        )
    kl_p_q = kl_div(p, q, config.epsilon)
    kl_q_p = kl_div(q, p, config.epsilon)
    return DivergenceResult(
        kl_p_q, kl_q_p, -weighted_divergence(kl_p_q, kl_q_p, config.weight)
    )


def contributions(
    p: PatternDistribution, q: PatternDistribution, epsilon: float
) -> tuple[ContributionEntry, ...]:
    """Break kl_div(p, q) into per-pattern summands, largest (most anomalous) first.

    Ties are broken by pattern key, so the report order is deterministic.
    """
    entries = [
        ContributionEntry(Pattern(p.dims, cells), p_side[0], q_side[0], _summand(p_side, q_side))
        for cells, p_side, q_side in zip(p.counts, *_sides(p, q, epsilon))
    ]
    entries.sort(key=lambda entry: (-entry.summand, entry.pattern.key))
    return tuple(entries)


def write_contributions_csv(
    entries: Sequence[ContributionEntry], stream: IO[str], top: int | None = None
) -> None:
    """CSV export of the first `top` contributions (all when top is None)."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["pattern_key", "p_prime", "q_prime", "summand"])
    for entry in entries[:top]:
        writer.writerow(
            [entry.pattern.key, repr(entry.p_prime), repr(entry.q_prime), repr(entry.summand)]
        )
