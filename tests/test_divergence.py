import math
import random
import re

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leveldiv import (
    DivergenceConfig,
    FilterDims,
    LevelDivError,
    PatternDistribution,
    TileGrid,
    contributions,
    extract_distribution,
    fitness,
    kl_div,
)
from leveldiv.divergence import _smoothed, weighted_divergence
from conftest import filled
from oracles import mp_fitness, mp_kl, mp_smoothed, random_rows

mpmath.mp.dps = 50


def _dist(rows, fw=2, fh=2):
    return extract_distribution(TileGrid(tuple(rows)), FilterDims(fw, fh))


def _random_pair(rng, fw, fh):
    while True:
        a = random_rows(rng)
        b = random_rows(rng)
        if (
            min(len(a[0]), len(b[0])) >= fw
            and min(len(a), len(b)) >= fh
        ):
            return _dist(a, fw, fh), _dist(b, fw, fh)


def test_smoothed_prob_hand_values():
    assert _smoothed(2, 7, 0.5)[0] == 2.5 / (7.5 * 1.5)
    assert _smoothed(1, 1, 1e-5)[0] == (1 + 1e-5) / ((1 + 1e-5) * (1 + 1e-5))
    approx = _smoothed(0, 100, 1e-5)[0]
    assert approx == pytest.approx(9.99989e-8, rel=1e-4)


def test_smoothed_prob_matches_extended_precision():
    value = _smoothed(2100, 2613, 1e-5)[0]
    oracle = float(mp_smoothed(2100, 2613, 1e-5))
    assert value == pytest.approx(oracle, rel=1e-15)


def test_weighted_fitness_formula():
    assert weighted_divergence(2.0, 4.0, 0.25) == 0.25 * 2.0 + 0.75 * 4.0
    assert weighted_divergence(3.0, 5.0, 1.0) == 3.0
    assert weighted_divergence(3.0, 5.0, 0.0) == 5.0


def test_config_validation():
    with pytest.raises(ValueError):
        DivergenceConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        DivergenceConfig(epsilon=1.5)
    with pytest.raises(ValueError):
        DivergenceConfig(weight=-0.1)
    with pytest.raises(ValueError):
        DivergenceConfig(weight=1.1)
    DivergenceConfig(epsilon=1.0, weight=1.0)  # boundary values allowed


def test_kl_self_is_exactly_zero():
    rng = random.Random(5)
    for _ in range(25):
        p, _ = _random_pair(rng, 2, 2)
        for eps in (1e-9, 1e-5, 0.5, 1.0):
            assert kl_div(p, p, eps) == 0.0


# Fixed examples, no example database: the same cases run on every machine.
_PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None)
# 1x2 patterns over five symbols: 25 possible keys, so p and q share many.
_COUNTS = st.dictionaries(
    st.text(st.sampled_from("abcde"), min_size=2, max_size=2),
    st.integers(1, 1000),
    min_size=1,
    max_size=25,
)
_EPSILONS = st.floats(min_value=1e-12, max_value=1.0)


def _counted(counts):
    return PatternDistribution(FilterDims(1, 2), counts, sum(counts.values()))


@_PROPERTY_SETTINGS
@given(counts=_COUNTS, eps=_EPSILONS)
def test_kl_self_is_zero_for_any_counts(counts, eps):
    p = _counted(counts)
    assert kl_div(p, p, eps) == 0.0


@_PROPERTY_SETTINGS
@given(p_counts=_COUNTS, q_counts=_COUNTS, eps=_EPSILONS)
def test_kl_ignores_count_map_order(p_counts, q_counts, eps):
    forward = kl_div(_counted(p_counts), _counted(q_counts), eps)
    backward = kl_div(
        _counted(dict(reversed(p_counts.items()))),
        _counted(dict(reversed(q_counts.items()))),
        eps,
    )
    assert backward.hex() == forward.hex()


def test_kl_matches_extended_precision_oracle():
    rng = random.Random(17)
    for _ in range(60):
        fw = rng.randint(1, 3)
        fh = rng.randint(1, 3)
        p, q = _random_pair(rng, fw, fh)
        got = kl_div(p, q, 1e-5)
        want = float(mp_kl(p.counts, p.total, q.counts, q.total, 1e-5))
        assert got == pytest.approx(want, abs=1e-9)


def test_kl_ignores_patterns_only_in_q():
    # q has extra symbols p never saw; only p's support enters the sum
    p = _dist(["aaa", "aaa"], 1, 1)
    q = _dist(["abc", "cba"], 1, 1)
    want = float(mp_kl(p.counts, p.total, q.counts, q.total, 1e-5))
    assert kl_div(p, q, 1e-5) == pytest.approx(want, abs=1e-12)
    # and the reverse direction sums over all three of q's symbols
    want_rev = float(mp_kl(q.counts, q.total, p.counts, p.total, 1e-5))
    assert kl_div(q, p, 1e-5) == pytest.approx(want_rev, abs=1e-12)


def test_kl_against_blank_grid_is_positive(mario_1_1):
    p = extract_distribution(mario_1_1, FilterDims(2, 2))
    q = extract_distribution(filled("-", 30, 14), FilterDims(2, 2))
    value = kl_div(p, q, 1e-5)
    oracle = float(mp_kl(p.counts, p.total, q.counts, q.total, 1e-5))
    assert value > 0.0
    assert value == pytest.approx(oracle, abs=1e-9)


def test_kl_errors():
    p = _dist(["ab", "ba"])
    q3 = _dist(["abc", "bca", "cab"], 3, 3)
    with pytest.raises(LevelDivError, match="cannot compare 2x2 against 3x3 patterns"):
        kl_div(p, q3, 1e-5)
    empty = PatternDistribution(FilterDims(2, 2), {}, 0)
    with pytest.raises(LevelDivError, match="first distribution has no patterns"):
        kl_div(empty, p, 1e-5)
    # The DivergenceConfig rule, (0, 1], holds for the bare epsilon too
    for bad in (math.nan, math.inf, 5.0, 0.0, -1.0):
        for measure in (kl_div, contributions):
            message = re.escape(f"epsilon must be in (0, 1], got {bad}")
            with pytest.raises(ValueError, match=message):
                measure(p, p, bad)
    # P' of an unseen pattern, eps / ((C + eps)(1 + eps)), underflows to 0
    p4 = _dist(["abc", "bca", "cab"])
    with pytest.raises(ValueError, match="epsilon 5e-324 is too small for a window total of 4"):
        kl_div(p4, p4, 5e-324)
    assert kl_div(p4, _dist(["aaa", "aaa", "aaa"]), 1e-320) > 0.0


def test_fitness_composition_and_directions():
    rng = random.Random(23)
    for _ in range(20):
        p, q = _random_pair(rng, 2, 2)
        w = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0])
        config = DivergenceConfig(dims=FilterDims(2, 2), weight=w)
        result = fitness(p, q, config)
        assert result.kl_p_q == kl_div(p, q, config.epsilon)
        assert result.kl_q_p == kl_div(q, p, config.epsilon)
        assert result.fitness == -weighted_divergence(result.kl_p_q, result.kl_q_p, w)
    config = DivergenceConfig(dims=FilterDims(2, 2), weight=1.0)
    p, q = _random_pair(rng, 2, 2)
    assert fitness(p, q, config).fitness == -fitness(p, q, config).kl_p_q
    config = DivergenceConfig(dims=FilterDims(2, 2), weight=0.0)
    assert fitness(p, q, config).fitness == -fitness(p, q, config).kl_q_p


def test_fitness_self_is_zero():
    p = _dist(["abab", "baba", "abab"])
    result = fitness(p, p, DivergenceConfig(dims=FilterDims(2, 2)))
    assert result.kl_p_q == 0.0
    assert result.kl_q_p == 0.0
    assert result.fitness == 0.0


def test_fitness_matches_oracle():
    rng = random.Random(31)
    for _ in range(30):
        p, q = _random_pair(rng, 2, 2)
        w = rng.random()
        config = DivergenceConfig(dims=FilterDims(2, 2), weight=w)
        got = fitness(p, q, config).fitness
        want = float(mp_fitness(p.counts, p.total, q.counts, q.total, 1e-5, w))
        assert got == pytest.approx(want, abs=1e-9)


def test_weight_linearity_is_exact():
    rng = random.Random(41)
    for _ in range(20):
        p, q = _random_pair(rng, 2, 2)
        at_1 = fitness(p, q, DivergenceConfig(dims=FilterDims(2, 2), weight=1.0)).fitness
        at_0 = fitness(p, q, DivergenceConfig(dims=FilterDims(2, 2), weight=0.0)).fitness
        for w in (0.0, 0.125, 0.5, 0.875, 1.0):
            mixed = fitness(p, q, DivergenceConfig(dims=FilterDims(2, 2), weight=w)).fitness
            assert mixed == w * at_1 + (1.0 - w) * at_0


def test_symmetry_at_half_weight_is_exact():
    rng = random.Random(43)
    config = DivergenceConfig(dims=FilterDims(2, 2), weight=0.5)
    for _ in range(20):
        p, q = _random_pair(rng, 2, 2)
        assert fitness(p, q, config).fitness == fitness(q, p, config).fitness


def test_fitness_dims_must_match_config():
    p = _dist(["ab", "ba"])
    with pytest.raises(LevelDivError, match="2x2 patterns but config expects 3x3"):
        fitness(p, p, DivergenceConfig(dims=FilterDims(3, 3)))


def test_contributions_self_all_zero():
    p = _dist(["abab", "bbaa"])
    report = contributions(p, p, 1e-5)
    assert len(report) == p.distinct
    assert all(entry.summand == 0.0 for entry in report)


def _fsum_of_contributions(p, q, eps):
    """kl(p, q) as the correctly rounded sum of its per-pattern contributions."""
    return math.fsum(entry.summand for entry in contributions(p, q, eps))


def test_contributions_sum_to_kl():
    rng = random.Random(47)
    for _ in range(100):
        p, q = _random_pair(rng, 2, 2)
        for a, b in ((p, q), (q, p)):
            assert _fsum_of_contributions(a, b, 1e-5).hex() == kl_div(a, b, 1e-5).hex()


@st.composite
def _count_pairs(draw):
    """(p, q) count maps: unrelated, with disjoint supports, equal, q's support
    inside p's, or q empty."""
    p = draw(_COUNTS)
    shape = draw(st.sampled_from(("any", "disjoint", "equal", "subset", "empty")))
    if shape == "any":
        q = draw(_COUNTS)
    elif shape == "disjoint":
        q = {cells.upper(): count for cells, count in draw(_COUNTS).items()}
    elif shape == "equal":
        q = dict(p)
    elif shape == "subset":
        kept = draw(st.lists(st.sampled_from(sorted(p)), min_size=1, unique=True))
        q = {cells: draw(st.sampled_from((p[cells], 1, 1000))) for cells in kept}
    else:
        q = {}
    return p, q


@_PROPERTY_SETTINGS
@given(pair=_count_pairs(), eps=_EPSILONS)
def test_kl_is_the_fsum_of_contributions_bit_for_bit(pair, eps):
    p, q = map(_counted, pair)
    forward = _fsum_of_contributions(p, q, eps)
    assert kl_div(p, q, eps).hex() == forward.hex()
    config = DivergenceConfig(epsilon=eps, dims=p.dims, weight=0.25)
    if not q.counts:
        for measure in (lambda: kl_div(q, p, eps), lambda: fitness(p, q, config)):
            with pytest.raises(LevelDivError, match="first distribution has no patterns"):
                measure()
        return
    backward = _fsum_of_contributions(q, p, eps)
    assert kl_div(q, p, eps).hex() == backward.hex()
    result = fitness(p, q, config)
    assert (result.kl_p_q.hex(), result.kl_q_p.hex()) == (forward.hex(), backward.hex())


def test_errors_come_in_the_order_the_directions_read_them():
    dims = FilterDims(1, 2)
    nine = PatternDistribution(dims, {"ab": 3, "bc": 1, "cc": 5}, 9)
    one = PatternDistribution(dims, {"ab": 1}, 1)
    empty = PatternDistribution(dims, {}, 0)
    eps = 5e-324
    config = DivergenceConfig(epsilon=eps, dims=dims)
    # P' of an unseen pattern underflows out of 9 windows but not out of 1, so
    # only a direction that reads nine's unseen P' fails.
    for p, q in ((nine, one), (nine, empty)):
        value = kl_div(p, q, eps)
        assert value.hex() == _fsum_of_contributions(p, q, eps).hex()
        assert value == pytest.approx(float(mp_kl(p.counts, p.total, q.counts, q.total, eps)))
    underflow = "epsilon 5e-324 is too small for a window total of 9: P' underflows to 0"
    for measure in (
        lambda: kl_div(one, nine, eps),
        lambda: contributions(one, nine, eps),
        lambda: fitness(nine, one, config),
        lambda: fitness(one, nine, config),
    ):
        with pytest.raises(ValueError, match=re.escape(underflow)):
            measure()
    # An empty second distribution fails as the first of the reverse
    # direction, before that direction reads nine's unseen P'.
    for measure in (lambda: fitness(nine, empty, config), lambda: kl_div(empty, nine, eps)):
        with pytest.raises(LevelDivError, match="first distribution has no patterns"):
            measure()


def test_contributions_sorted_and_deterministic():
    p = _dist(["abab", "bbaa", "aabb"])
    q = _dist(["aaaa", "aaaa", "aaaa"])
    report = contributions(p, q, 1e-5)
    summands = [e.summand for e in report]
    assert summands == sorted(summands, reverse=True)
    again = contributions(p, q, 1e-5)
    assert [(e.cells, e.summand) for e in report] == [(e.cells, e.summand) for e in again]


def test_contributions_flag_removed_pipes(mario_1_1):
    # strip every pipe tile; the missing pipe patterns should dominate the report
    dims = FilterDims(2, 2)
    p = extract_distribution(mario_1_1, dims)
    stripped = TileGrid(tuple(re.sub(r"[<>\[\]]", "-", row) for row in mario_1_1.rows))
    q = extract_distribution(stripped, dims)
    report = contributions(p, q, 1e-5)
    pipe_tiles = set("<>[]")
    top = report[:10]
    assert all(set(e.cells) & pipe_tiles for e in top)
    assert all(e.summand > 0.0 for e in top)
    top_cells = [e.cells for e in report[:5]]
    assert "<>[]" in top_cells


def test_kl_natural_log_scale():
    # two symbols, counts chosen so the ratio is e: P'(x)/Q'(x) known analytically
    p = PatternDistribution(FilterDims(1, 1), {"a": 10}, 10)
    q = PatternDistribution(FilterDims(1, 1), {"a": 10, "b": 10}, 20)
    eps = 1e-5
    expected = _smoothed(10, 10, eps)[0] * (
        math.log(_smoothed(10, 10, eps)[0]) - math.log(_smoothed(10, 20, eps)[0])
    )
    assert kl_div(p, q, eps) == expected
