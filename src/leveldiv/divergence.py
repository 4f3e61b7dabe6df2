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
from typing import IO, Iterable, Iterator, Sequence

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


def weighted_fitness(kl_p_q: float, kl_q_p: float, weight: float) -> float:
    """Negated mix of the two directions: -(w * kl_p_q + (1 - w) * kl_q_p)."""
    return -(weight * kl_p_q + (1.0 - weight) * kl_q_p)


def _check_pair(p: PatternDistribution, q: PatternDistribution, epsilon: float) -> None:
    if p.dims != q.dims:
        raise DimsMismatchError(f"cannot compare {p.dims} against {q.dims} patterns")
    if not p.counts:
        raise EmptyDistributionError("first distribution has no patterns")
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")


def _smoothed(
    counts: Iterable[int], total: int, epsilon: float
) -> dict[int, tuple[float, float]]:
    """P' and log P' for each distinct count; patterns seen equally often share them."""
    table = {}
    for count in counts:
        prob = smoothed_prob(count, total, epsilon)
        table[count] = (prob, math.log(prob))
    return table


def _terms(
    p: PatternDistribution, q: PatternDistribution, epsilon: float
) -> Iterator[tuple[str, float, float, float]]:
    """(cells, P', Q', summand) for every pattern of p, in count-map order."""
    _check_pair(p, q, epsilon)
    q_get = q.counts.get
    p_smoothed = _smoothed(set(p.counts.values()), p.total, epsilon)
    q_smoothed = _smoothed({0, *q.counts.values()}, q.total, epsilon)
    for cells, count in p.counts.items():
        p_prime, log_p = p_smoothed[count]
        q_prime, log_q = q_smoothed[q_get(cells, 0)]
        yield cells, p_prime, q_prime, p_prime * (log_p - log_q)


def kl_div(p: PatternDistribution, q: PatternDistribution, epsilon: float) -> float:
    """Directed divergence of q from p, over the patterns of p only.

    The sum is correctly rounded (math.fsum), so it does not depend on the
    order of the count maps; kl_div(p, p) is exactly 0 because every log
    ratio is 0.
    """
    return math.fsum(summand for _, _, _, summand in _terms(p, q, epsilon))


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
        kl_p_q, kl_q_p, weighted_fitness(kl_p_q, kl_q_p, config.weight)
    )


def contributions(
    p: PatternDistribution, q: PatternDistribution, epsilon: float
) -> tuple[ContributionEntry, ...]:
    """Break kl_div(p, q) into per-pattern summands, largest (most anomalous) first.

    Ties are broken by pattern key, so the report order is deterministic.
    """
    entries = [
        ContributionEntry(Pattern(p.dims, cells), p_prime, q_prime, summand)
        for cells, p_prime, q_prime, summand in _terms(p, q, epsilon)
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
