import math
import random
import statistics
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperphase.combinatorics import binomial, colex_unrank
from hyperphase.errors import ResourceLimitError, ValidationError
from hyperphase import models
from hyperphase.models import (
    EdgeStream,
    Hypergraph,
    first_distinct_ranks,
    process_stream,
    sample_binomial,
    sample_uniform,
    second_round_probability,
    trial_seed,
)
from hyperphase.params import Params

# 0.99 chi-square quantiles, frozen (df: value)
CHI2_CRIT = {5: 15.0863, 14: 29.1412}


def test_hypergraph_canonicalizes_edge_order():
    params = Params(3, 2, 5)
    a = Hypergraph(params, ((2, 3, 4), (1, 2, 3)))
    b = Hypergraph(params, ((1, 2, 3), (2, 3, 4)))
    assert a == b
    assert a.edges == ((1, 2, 3), (2, 3, 4))
    c = Hypergraph(params, np.array([[2, 3, 4], [1, 2, 3]]))
    assert c == a and c.edges == a.edges
    assert c.array.tolist() == [[1, 2, 3], [2, 3, 4]] and c.array.dtype == np.int64
    with pytest.raises(ValueError, match="read-only"):
        c.array[0, 0] = 5


def test_hypergraph_edge_tuples_are_the_array_rows():
    params = Params(3, 2, 5)
    h = Hypergraph(params, np.array([[2, 3, 4], [1, 2, 3]]))
    assert h.m == 2
    assert h.edges == ((1, 2, 3), (2, 3, 4)) and h.edges is h.edges
    assert h == Hypergraph(params, ((1, 2, 3), (2, 3, 4)))
    assert hash(h) == hash(Hypergraph(params, ((2, 3, 4), (1, 2, 3))))
    assert Hypergraph(params).edges == () and Hypergraph(params).m == 0
    with pytest.raises(AttributeError):
        h.edges = ()


def test_hypergraph_rejects_bad_edges():
    params = Params(3, 2, 5)
    for form in (tuple, np.array):  # an array that fails a check names the fault the same way
        with pytest.raises(ValidationError, match=r"edge \(3, 2, 1\) must be strictly increasing"):
            Hypergraph(params, form(((3, 2, 1),)))
        with pytest.raises(ValidationError, match=r"duplicate edge \(1, 2, 3\)"):
            Hypergraph(params, form(((1, 2, 3), (2, 3, 4), (1, 2, 3))))
        with pytest.raises(ValidationError, match=r"edge \(1, 2, 6\) has vertices outside \[1, 5\]"):
            Hypergraph(params, form(((1, 2, 6),)))
        with pytest.raises(ValidationError, match="vertices must be integers"):
            Hypergraph(params, form(((1.2, 1.5, 3),)))
    with pytest.raises(ValidationError, match=r"edge \(1, 2\) must have exactly 3 vertices, got 2"):
        Hypergraph(params, ((1, 2, 3), (1, 2)))  # ragged rows make no array


def test_hypergraph_rejects_descending_unsigned_rows():
    params = Params(3, 2, 5)  # np.diff of a descending uint row wraps to a large positive step
    for dtype in (np.uint8, np.uint64):
        with pytest.raises(ValidationError, match=r"edge \(3, 2, 1\) must be strictly increasing"):
            Hypergraph(params, np.array([[1, 2, 3], [3, 2, 1]], dtype=dtype))
        assert Hypergraph(params, np.array([[2, 3, 5]], dtype=dtype)).edges == ((2, 3, 5),)


def test_hypergraph_from_ranks_rejects_bad_ranks(monkeypatch):
    params = Params(3, 2, 6)  # C(6, 3) = 20 edges
    for bad, match in (
        ([3, 1], "strictly increasing"),
        ([1, 4, 4], "strictly increasing"),
        ([-1, 2], r"strictly increasing in \[0, 20\)"),
        ([5, 20], r"strictly increasing in \[0, 20\)"),
        ([2**62 + 1, -(2**62), 5], r"strictly increasing in \[0, 20\)"),  # b - a wraps past int64
        (np.array([5, 3], dtype=np.uint64), "signed integers"),
        ([0.0, 1.0], "signed integers"),
        ([[0, 1]], "1-d"),
    ):
        with pytest.raises(ValidationError, match=match):
            Hypergraph.from_ranks(params, np.array(bad))
    monkeypatch.setenv("HYPERPHASE_MAX_JSETS", "12")  # C(6, 2) = 15 j-sets are never allocated here
    assert Hypergraph.from_ranks(params, np.arange(12)).m == 12
    with pytest.raises(ResourceLimitError, match="edge count m = 13 exceeds the guardrail cap 12"):
        Hypergraph.from_ranks(params, np.arange(13))


def test_hypergraph_from_ranks_equals_the_edge_form():
    rs = np.random.default_rng(5)
    for params in (Params(3, 2, 9), Params(4, 1, 11), Params(2, 1, 30)):
        total = params.num_ksets
        for size in (0, 1, 7, total // 2, total - 3, total):
            ranks = np.sort(rs.choice(total, size, replace=False)).astype(np.int64)
            h = Hypergraph.from_ranks(params, ranks)
            edges = [colex_unrank(int(r), params.k, params.n) for r in ranks]
            random.Random(size).shuffle(edges)
            expected = Hypergraph(params, tuple(edges))
            assert h == expected and np.array_equal(h.array, expected.array)
            assert h.array.dtype == np.int64 and h.array.shape == (size, params.k)
            assert not h.array.flags.writeable
    empty = Hypergraph.from_ranks(Params(3, 2, 6), np.empty(0, dtype=np.int64))
    assert empty == Hypergraph(Params(3, 2, 6)) and empty.array.shape == (0, 3)


@pytest.mark.parametrize("M", [0, 1, 40, 60, 61, 100, 120])
def test_samplers_build_the_edge_form_from_sorted_ranks(M):
    # each sample equals the edge-form Hypergraph of the randrange loop's
    # ranks; M > C(10, 3) / 2 = 60 takes the complement draw.  The binomial
    # oracle counts and draws on one generator, where the sampler's chain
    # draws on a fresh one past the count's random()
    params = Params(3, 2, 10)
    total = params.num_ksets

    def edge_form(ranks):
        return Hypergraph(params, models.colex_unrank_array(np.array(ranks, dtype=np.int64), params.k, params.n))

    for seed in range(3):
        expected = edge_form(loop_distinct(random.Random(seed), total, M))
        h = sample_uniform(params, M, seed)
        assert h == expected and np.array_equal(h.array, expected.array)
    for p in (0.0, 0.05, 0.3, 0.7, 1.0):
        rng = random.Random(M)
        expected = edge_form(loop_distinct(rng, total, models._draw_binomial_count(rng, total, p)))
        h = sample_binomial(params, p, M)
        assert h == expected and np.array_equal(h.array, expected.array)


def test_sample_binomial_extremes():
    params = Params(3, 1, 6)
    assert sample_binomial(params, 0.0, 1).m == 0
    full = sample_binomial(params, 1.0, 1)
    assert full.m == binomial(6, 3)
    with pytest.raises(ValidationError):
        sample_binomial(params, 1.5, 1)


def test_samplers_guard_the_edge_count(monkeypatch):
    monkeypatch.setenv("HYPERPHASE_MAX_JSETS", "50")
    params = Params(3, 1, 30)  # 30 j-sets pass the cap; C(30, 3) = 4060 edges
    assert sample_uniform(params, 50, 1).m == 50
    with pytest.raises(ResourceLimitError, match="edge count m = 100 exceeds the guardrail cap 50"):
        sample_uniform(params, 100, 1)
    with pytest.raises(ResourceLimitError, match="guardrail cap 50"):
        sample_binomial(params, 0.5, 1)
    with pytest.raises(ResourceLimitError, match="vertex count n = 60 exceeds the guardrail cap 50"):
        sample_binomial(Params(3, 1, 60), 0.0, 1)


def test_sample_uniform_extremes():
    params = Params(3, 1, 6)
    assert sample_uniform(params, 0, 3).m == 0
    total = binomial(6, 3)
    full = sample_uniform(params, total, 3)
    assert full.edges == tuple(sorted(combinations(range(1, 7), 3), key=lambda t: t[::-1]))
    with pytest.raises(ValidationError):
        sample_uniform(params, total + 1, 3)


def test_determinism_bit_for_bit():
    params = Params(4, 2, 12)
    assert sample_binomial(params, 0.1, 99) == sample_binomial(params, 0.1, 99)
    assert sample_uniform(params, 17, 99) == sample_uniform(params, 17, 99)
    s1 = [next(process_stream(params, 5)) for _ in range(10)]
    s2 = [next(process_stream(params, 5)) for _ in range(10)]
    assert s1 == s2


@given(st.integers(0, 2**32), st.floats(0.0, 1.0))
@settings(max_examples=30)
def test_sampled_edges_are_canonical(seed, p):
    h = sample_binomial(Params(3, 2, 8), p, seed)
    assert len(set(h.edges)) == h.m
    for e in h.edges:
        assert len(e) == 3 and list(e) == sorted(e) and 1 <= e[0] and e[-1] <= 8


def test_binomial_edge_count_mean():
    # Binomial(C(20,3), 0.01): mean 11.4, 3-sigma band for a 1000-seed mean
    params = Params(3, 2, 20)
    ms = [sample_binomial(params, 0.01, seed).m for seed in range(1000)]
    mean = statistics.fmean(ms)
    band = 3 * math.sqrt(1140 * 0.01 * 0.99 / 1000)
    assert abs(mean - 1140 * 0.01) <= band


def test_uniform_model_hits_every_edge_set_uniformly():
    # all C(10, 3) = 120 possible 3-edge sets, each with frequency
    # 1/120 +/- 3*sqrt((1/120)(119/120)/2000) over 2000 seeds
    params = Params(3, 1, 5)
    trials = 2000
    counts = Counter(frozenset(sample_uniform(params, 3, 10_000 + s).edges) for s in range(trials))
    assert len(counts) == 120
    band = 3 * math.sqrt((1 / 120) * (119 / 120) / trials)
    for c in counts.values():
        assert abs(c / trials - 1 / 120) <= band


def test_stream_single_possible_edge():
    params = Params(3, 1, 3)
    stream = process_stream(params, 0)
    assert next(stream) == (1, 2, 3)
    with pytest.raises(StopIteration):
        next(stream)
    assert stream.position == 1


def test_stream_exhaustion_yields_full_enumeration():
    params = Params(3, 1, 5)
    edges = list(process_stream(params, 42))
    assert sorted(edges) == sorted(combinations(range(1, 6), 3))


def test_stream_prefix_equals_uniform_sample_same_seed():
    params = Params(3, 2, 9)
    for seed in range(50):
        stream = process_stream(params, seed)
        prefix = {next(stream) for _ in range(6)}
        assert prefix == sample_uniform(params, 6, seed).edge_set()


@pytest.mark.parametrize("k,j,n,df", [(3, 1, 4, 5), (2, 1, 4, 14)])
def test_stream_prefix_uniform_chi_square(k, j, n, df):
    # 2-edge prefixes hit every pair of possible edges uniformly
    params = Params(k, j, n)
    trials = 3000
    counts = Counter()
    for s in range(trials):
        stream = process_stream(params, 3000 + s)
        counts[frozenset((next(stream), next(stream)))] += 1
    cells = binomial(binomial(n, k), 2)
    assert len(counts) == cells == df + 1
    expected = trials / cells
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < CHI2_CRIT[df]


def test_binomial_conditioned_on_count_is_uniform():
    # conditional on m == 2, the binomial model's edge set is uniform
    params = Params(2, 1, 4)
    counts = Counter()
    seed = 0
    while sum(counts.values()) < 1500:
        h = sample_binomial(params, 0.3, seed)
        if h.m == 2:
            counts[h.edge_set()] += 1
        seed += 1
    assert len(counts) == 15
    expected = sum(counts.values()) / 15
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < CHI2_CRIT[14]


def test_second_round_probability_examples():
    assert second_round_probability(0.5, 0.0) == 0.5
    assert second_round_probability(0.3, 0.3) == 0.0
    assert second_round_probability(0.3, 0.1) == pytest.approx(0.2222222222, abs=1e-9)


def test_second_round_probability_errors():
    with pytest.raises(ValidationError):
        second_round_probability(0.1, 0.2)
    with pytest.raises(ValidationError):
        second_round_probability(1.0, 1.0)
    with pytest.raises(ValidationError):
        second_round_probability(1.2, 0.1)


@given(st.floats(0.0, 0.99), st.floats(0.0, 1.0))
def test_second_round_union_rate_identity(p0, frac):
    # p0 + p* - p0 * p* recovers p exactly
    p = p0 + (1.0 - p0) * frac
    p_star = second_round_probability(p, p0)
    assert p0 + p_star - p0 * p_star == pytest.approx(p, abs=1e-12)


def test_trial_seed_split():
    assert trial_seed(10, 0) == 10
    assert trial_seed(10, 7) == 17


def test_stream_attributes():
    stream = EdgeStream(Params(3, 2, 6), seed=9)
    assert stream.seed == 9 and stream.position == 0
    next(stream)
    assert stream.position == 1


def scalar_first_distinct(rng, total, count):
    """The rejection loop ``first_distinct_ranks`` replays."""
    drawn, out = set(), []
    while len(out) < count:
        r = rng.randrange(total)
        if r not in drawn:
            drawn.add(r)
            out.append(r)
    return out


def loop_distinct(rng, total, count):
    """`count` distinct ranks by the loop: its first `count`, or past
    total // 2 the ascending complement of its first total - count."""
    if count > total // 2:
        excluded = set(scalar_first_distinct(rng, total, total - count))
        return [r for r in range(total) if r not in excluded]
    return scalar_first_distinct(rng, total, count)


@pytest.mark.parametrize("total", [1, 2, 3, 2**32 - 1, 2**32, 2**32 + 1, 10**12, 2**63 - 1])
def test_rank_replay_matches_randrange_loop(total):
    for seed in (0, 1, 2024):
        for count in sorted({min(c, total) for c in (0, 1, 2, 3, 40, 700)}):
            replay, loop = random.Random(seed), random.Random(seed)
            ranks = first_distinct_ranks(replay, total, count)
            assert ranks.dtype == np.int64
            assert ranks.tolist() == scalar_first_distinct(loop, total, count)


@pytest.mark.parametrize("bits", [4, 63])  # the keys of a 7-value pool fit in 63 bits, or do not
def test_first_occurrences_keep_the_first_of_each_repeat(bits):
    big = 2 ** (bits - 1)
    pool = np.array([big, 5, big, 5, 7, 5, big], dtype=np.int64)
    first = models._first_occurrences(pool, bits)
    assert first.tolist() == [0, 1, 4]  # the last occurrences would be [4, 5, 6]
    assert np.array_equal(first, np.sort(np.unique(pool, return_index=True)[1]))
    assert models._first_occurrences(pool[:0], bits).tolist() == []
    assert models._first_occurrences(pool[:0], bits, pool[:0]).tolist() == []
    # two trials: each keeps its own first of every value, the trial field alone separating them
    trial = np.array([0, 0, 0, 1, 1, 1, 1])
    assert models._first_occurrences(pool, bits, trial).tolist() == [0, 1, 3, 4, 6]
    assert models._first_occurrences(pool, bits, np.zeros(7, dtype=np.int64)).tolist() == [0, 1, 4]
    pool = np.random.default_rng(bits).integers(0, 12, 500) << (bits - 4)  # many repeats
    assert np.array_equal(models._first_occurrences(pool, bits), np.sort(np.unique(pool, return_index=True)[1]))
    trial = np.repeat(np.arange(3), [200, 0, 300])
    expected = [np.sort(np.unique(pool[t == trial], return_index=True)[1]) + (t == trial).argmax() for t in (0, 2)]
    assert np.array_equal(models._first_occurrences(pool, bits, trial), np.concatenate(expected))


def test_rank_replay_spans_batches_near_a_full_draw():
    # 95 of 100 values: later batches must skip values kept by earlier ones
    replay, loop = random.Random(7), random.Random(7)
    assert first_distinct_ranks(replay, 100, 95).tolist() == scalar_first_distinct(loop, 100, 95)


def after_count(seed):
    """A fresh generator on `seed` past a binomial count's ``random()``."""
    rng = random.Random(seed)
    rng.random()
    return rng


def words_after_count(seed, total, count):
    """The words a draw of `count` reads in its first round, after the count."""
    return models._round_words(after_count(seed), total, 0, count)


@pytest.mark.parametrize("total", [1, 7, 100, 4060, 161_700, 2**32 + 1, 2**63 - 1])
@pytest.mark.parametrize("batch", [1, 2, 23])
def test_batch_draw_equals_one_trial_draws(total, batch):
    # the two-word path past 2^32, packed keys past 63 bits at 2^63 - 1;
    # seeds repeat, so two trials of a batch draw the same values
    counts = [c for c in (0, 1, total // 2, total // 2 + 1, total, 300) if c <= min(total, 200_000)]
    trials = [(seed % 5, counts[seed % len(counts)]) for seed in range(batch)]
    words = [words_after_count(seed, total, count) for seed, count in trials]
    draws = models._batch_first_ranks(total, [count for _, count in trials], words)
    assert len(draws) == batch
    for (seed, count), draw in zip(trials, draws):
        one = first_distinct_ranks(after_count(seed), total, count)
        if draw is None:  # the first round came up short: the one-trial draw needed a second
            rng, bits = after_count(seed), total.bit_length()
            first = {r for r in (rng.getrandbits(bits) for _ in range(models._draw_size(total, 0, count))) if r < total}
            assert len(first) < count
            continue
        assert draw.dtype == np.int64 and np.array_equal(draw, one)
        if count <= 5000:  # the loop's cost grows with count
            assert draw.tolist() == scalar_first_distinct(after_count(seed), total, count)
    short = models._batch_first_ranks(100, [95, 3], [words_after_count(s, 100, c) for s, c in ((7, 95), (7, 3))])
    assert short[0] is None and short[1].tolist() == scalar_first_distinct(after_count(7), 100, 3)


def test_batched_samples_redraw_short_trials():
    # the batched process prefixes and binomial samples equal one-trial
    # draws by the loop, a binomial one counting and drawing on one
    # generator; all 91 of 91 needs more than one round, so it is redrawn
    params = Params(2, 1, 14)  # C(14, 2) = 91 k-sets
    seeds = [3, 4, 3, 5]
    words = [models._round_words(random.Random(s), 91, 0, 91) for s in seeds]
    assert models._batch_first_ranks(91, [91] * len(seeds), words) == [None] * len(seeds)
    for count in (0, 1, 45, 46, 85, 91):
        assert [a.tolist() for a in models._process_batch(params, seeds, count)] == [
            scalar_first_distinct(random.Random(s), 91, count) for s in seeds]
    for p in (0.0, 0.3, 0.5, 0.93, 1.0):
        (batch,) = models._binomial_batches(params, p, seeds, 91 * len(seeds), len(seeds))
        rngs = [random.Random(s) for s in seeds]
        counts = [models._draw_binomial_count(rng, 91, p) for rng in rngs]
        assert [a.tolist() for a in batch] == [sorted(loop_distinct(rng, 91, m)) for rng, m in zip(rngs, counts)]


@pytest.mark.parametrize("total", [1, 7, 100, 4060])
def test_longer_rank_draw_extends_the_stream_order(total):
    # a hitting-time prefix redrawn longer keeps its first M ranks
    for seed in range(3):
        for count in sorted({min(c, total) for c in (1, 5, 60, total // 2 + 1, total)}):
            drawn = first_distinct_ranks(random.Random(seed), total, count).tolist()
            for M in sorted({0, 1, count // 3, count - 1, count}):
                assert drawn[:M] == scalar_first_distinct(random.Random(seed), total, M)


@pytest.mark.parametrize("total,count", [(5, 6), (0, 1)])
def test_rank_draw_past_total_raises_and_leaves_rng_untouched(total, count):
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ValidationError, match=f"count={count}.*total={total}"):
        first_distinct_ranks(rng, total, count)
    assert rng.getstate() == state


@pytest.mark.parametrize("k,n", [(3, 9), (2, 7), (4, 10)])
def test_stream_equals_randrange_loop_across_refills(k, n):
    total = binomial(n, k)
    for seed in range(5):
        expected = [colex_unrank(r, k, n) for r in scalar_first_distinct(random.Random(seed), total, total)]
        assert list(process_stream(Params(k, 1, n), seed)) == expected
        stream = process_stream(Params(k, 1, n), seed)
        for boundary in (1, 3, 7):  # the held prefix is used up here and redrawn
            while stream.position < boundary:
                next(stream)
            assert stream.position == len(stream._ranks) == boundary
            assert next(stream) == expected[boundary]
            assert len(stream._ranks) == min(2 * boundary + 1, total)


@pytest.mark.parametrize("total", [7, 100, 4099])
def test_complement_rank_draw_matches_randrange_loop(total):
    # the uniform sampler's ranks in draw order, complemented past total // 2
    for seed in range(3):
        for count in (total // 2, total // 2 + 1, total - 1, total):
            ranks = models._distinct_ranks(models._first_ranks(total, seed, min(count, total - count)), total, count)
            assert ranks.dtype == np.int64 and ranks.tolist() == loop_distinct(random.Random(seed), total, count)


@pytest.mark.parametrize("total", [1, 2, 7, 15, 220])
def test_binomial_chains_yield_each_sample_once(total):
    # each count's sample is the ranks its chain has yielded so far, with
    # none yielded twice (a merge is idempotent, so the static census tests
    # cannot see a repeat); a chain starts at the first count and at the
    # first past total // 2
    half = total // 2
    count_lists = [
        [half + 1, 0, total, half, half + 1, half, 0, total],
        [total, half + 1, total],
        [half, 0, half, 1 if total > 1 else 0],
        [0],
        [total - 1, half + 1, 1, total - 1, half],
    ]
    if total == 220:
        count_lists.append([3, 150, 17, 110, 111, 200, 111, 219, 56])
    for seed in range(3):
        rng = random.Random(seed)
        rng.random()
        draw = first_distinct_ranks(rng, total, total)  # extends every shorter draw
        for counts in count_lists:
            yielded = list(models._binomial_chains(total, counts, seed))
            order = [i for i, _, _ in yielded]
            assert sorted(order) == list(range(len(counts)))
            ordered = [counts[i] for i in order]
            assert ordered == sorted(counts)
            past = [n for n, m in enumerate(ordered) if m > half][:1]
            assert [n for n, (_, fresh, _) in enumerate(yielded) if fresh] == sorted({0, *past})
            chain = []
            for i, fresh, new in yielded:
                chain = ([] if fresh else chain) + new.tolist()
                assert len(set(chain)) == len(chain)
                assert set(chain) == set(models._distinct_ranks(draw, total, counts[i]).tolist())


def scalar_log_cdfs(n_trials, p, steps):
    """log CDF(0..steps) by the scalar loop's own recurrence."""
    log_odds = math.log(p) - math.log1p(-p)
    log_pmf = n_trials * math.log1p(-p)
    out = [log_pmf]
    for m in range(steps):
        log_pmf += log_odds + math.log(n_trials - m) - math.log(m + 1)
        out.append(models._logaddexp(out[-1], log_pmf))
    return out


def test_binomial_inversion_replay_matches_scalar_loop():
    rs = np.random.default_rng(11)
    decided = 0
    for i in range(600):
        n_trials = int(10 ** rs.uniform(0, 6))
        p = float(10 ** rs.uniform(-6, math.log10(0.5)))
        log_u = math.log(random.Random(i).random())
        m = models._inversion_crossing(log_u, n_trials, p)
        assert m is None or m == models._scalar_inversion(log_u, n_trials, p)
        decided += m is not None
    assert decided >= 590  # the scalar fallback is the exception


def test_binomial_count_draw_matches_scalar_path(monkeypatch):
    # a static run's one rank draw per seed (_binomial_chains) starts past one
    # random(): every count at p in (0, 1) must stop there, on the inversion
    # branch, the normal approximation (a mean past 8) and the p > 1/2
    # mirror; a count at p = 0 or 1 reads no word
    params = Params(3, 2, 100)
    for inversion_mean in (models._MAX_INVERSION_MEAN, 8.0):
        monkeypatch.setattr(models, "_MAX_INVERSION_MEAN", inversion_mean)
        for p, seed in [(0.12, 1), (0.004, 2), (0.5, 3), (0.88, 4), (0.9999, 5), (1e-7, 6)]:
            m, rng = models._binomial_count(params, p, seed)
            after = random.Random(seed)
            after.random()
            assert rng.getstate() == after.getstate() and m == sample_binomial(params, p, seed).m
        for p in (0.0, 1.0):
            m, rng = models._binomial_count(params, p, 7)
            assert rng.getstate() == random.Random(7).getstate() and m == p * params.num_ksets
    monkeypatch.undo()
    cases = [(161_700, 0.12), (551_300, 0.0036), (1000, 0.7), (40, 0.999), (10**6, 3e-7)]
    fast = {
        (n, p, s): models._draw_binomial_count(random.Random(s), n, p) for n, p in cases for s in range(40)
    }
    monkeypatch.setattr(models, "_inversion_crossing", lambda log_u, n_trials, p: None)
    for (n, p, s), m in fast.items():  # p > 0.5 draws n - Binomial(n, 1 - p)
        assert m == models._draw_binomial_count(random.Random(s), n, p)


def test_binomial_inversion_on_a_cdf_value_falls_back():
    # log_u placed exactly on the loop's log CDF(m): np.log's drift could
    # put it on either side, so the replay declines and the loop decides
    n_trials, p, m = 161_700, 0.12, 19_404
    log_u = scalar_log_cdfs(n_trials, p, m)[m]
    assert models._inversion_crossing(log_u, n_trials, p) is None
    assert models._scalar_inversion(log_u, n_trials, p) == m
    assert models._inversion_crossing(log_u - 1e-3, n_trials, p) == models._scalar_inversion(
        log_u - 1e-3, n_trials, p
    )


def test_binomial_inversion_tail_break():
    # in floats log CDF levels off just below 0 here, so the largest u the
    # generator gives runs the loop past the mean until log pmf < -745;
    # that level is within the drift bound, so the loop decides
    n_trials, p = 1000, 0.2
    log_u = math.log1p(-(2.0**-53))
    assert scalar_log_cdfs(n_trials, p, 800)[-1] < log_u
    m = models._scalar_inversion(log_u, n_trials, p)
    assert m > 200 + 40 * math.sqrt(160)
    assert models._inversion_crossing(log_u, n_trials, p) is None
    # a level above every CDF value reaches the replay's own tail test
    assert models._inversion_crossing(1e-6, n_trials, p) == models._scalar_inversion(1e-6, n_trials, p) == m


def test_binomial_inversion_tail_break_within_the_drift_falls_back():
    # bisect p until the loop's log pmf(700) sits on -745: the replay's tail
    # test might go either way there, so its block marks the exit unsure
    # and the crossing declines even though no CDF value is ever reached
    n_trials, count, lo_p, hi_p = 1000, 700, 0.15, 0.25  # log pmf(700) rises with p
    for _ in range(100):
        p = (lo_p + hi_p) / 2
        log_pmf = n_trials * math.log1p(-p)
        for m in range(count):
            log_pmf += math.log(p) - math.log1p(-p) + math.log(n_trials - m) - math.log(m + 1)
        lo_p, hi_p = (p, hi_p) if log_pmf < -745.0 else (lo_p, p)
    assert abs(log_pmf + 745.0) < 1e-12
    models._inversion_block.cache_clear()
    carry = (0, n_trials * math.log1p(-p), n_trials * math.log1p(-p), -n_trials * math.log1p(-p))
    while True:
        hi, _, skip, exit_at, exit_sure, after = models._inversion_block(n_trials, p, *carry)
        if exit_at < skip + len(hi):
            break
        carry = after
    assert carry[0] + 1 + exit_at == count and not exit_sure
    assert models._inversion_crossing(1e-6, n_trials, p) is None
    assert models._scalar_inversion(1e-6, n_trials, p) == (count if log_pmf < -745.0 else count + 1)


@pytest.mark.parametrize(
    "n_trials,p",
    [(1, 0.3), (40, 0.02), (1000, 0.2), (161_700, 0.12), (551_300, 0.0036), (10**6, 0.07)],
)
def test_cached_inversion_blocks_match_scalar_loop(n_trials, p):
    # a cached block decides any log_u alone; past the first one (mean
    # > 2^16, the last case) the loop continues from its carried state
    models._inversion_block.cache_clear()
    log_pmf = n_trials * math.log1p(-p)
    hi, lo, skip, _, _, after = models._inversion_block(n_trials, p, 0, log_pmf, log_pmf, abs(log_pmf))
    assert skip + len(hi) <= 2**16 + 1 and (np.diff(hi) >= 0).all()
    assert not hi.flags.writeable and not lo.flags.writeable and hi.base is None
    assert skip == 0 or (hi[:1] >= math.log(2.0**-53)).all()  # the first block past mean 2^16 keeps none
    levels = [math.log(random.Random(i).random()) for i in range(6)]
    levels += [math.log(2.0**-53), -20.0, math.log1p(-(2.0**-53)), -1e-300]  # at and past the ends of log(random())
    answers = {}
    for order in (sorted(levels, reverse=True), sorted(levels)):  # large log_u first, then small
        models._inversion_block.cache_clear()
        for log_u in order:
            m = models._inversion_crossing(log_u, n_trials, p)
            assert answers.setdefault(log_u, m) == m
            assert m is None or m == models._scalar_inversion(log_u, n_trials, p)
    assert sum(m is not None for m in answers.values()) >= 6
    if n_trials * p > 2**16:
        assert after[0] == skip + len(hi) < max(filter(None, answers.values()))
        assert (np.diff(models._inversion_block(n_trials, p, *after)[0]) >= 0).all()
    # below log(2^-53) no draw of random() reaches; the scalar loop decides it
    assert models._inversion_crossing(-40.0, n_trials, p) in (0, None)


def test_inversion_cache_is_bounded_and_reused():
    maxsize = models._inversion_block.cache_info().maxsize
    assert maxsize is not None and maxsize * (2**16 + 1) * 16 <= 10 * 2**20
    # the steps a draw can reach: mean - 8.5 sd to mean + 10 sd, not the whole block
    for n_trials, p, most in ((161_700, 0.1246, 50_000), (161_700, 0.00093, 10_000)):
        log_pmf = n_trials * math.log1p(-p)
        hi, lo, *_ = models._inversion_block(n_trials, p, 0, log_pmf, log_pmf, abs(log_pmf))
        assert hi.nbytes + lo.nbytes < most
    models._inversion_block.cache_clear()
    for i in range(maxsize + 3):
        models._inversion_crossing(-0.5, 1000 + i, 0.01)
    models._inversion_crossing(-0.7, 1000 + maxsize + 2, 0.01)
    info = models._inversion_block.cache_info()
    assert (info.currsize, info.hits, info.misses) == (maxsize, 1, maxsize + 3)


def test_binomial_count_draw_calls_the_replay_by_module_name(monkeypatch):
    # test_binomial_count_draw_matches_scalar_path forces the scalar loop by
    # replacing models._inversion_crossing; the draw must look it up there
    calls = []
    monkeypatch.setattr(models, "_inversion_crossing", lambda log_u, n_trials, p: calls.append(p) or 12_345)
    assert models._draw_binomial_count(random.Random(1), 161_700, 0.12) == 12_345
    assert models._draw_binomial_count(random.Random(1), 161_700, 0.88) == 161_700 - 12_345
    assert calls == [0.12, pytest.approx(0.12)]


def test_binomial_count_draw_at_a_zero_uniform():
    # random() can return 0.0, which has no log: the count is then the
    # smallest, 0, at p <= 1/2, and C(n, k) above it, through the mirror
    class ZeroUniform:
        def random(self):
            return 0.0

    for p, expected in ((0.12, 0), (0.5, 0), (0.88, 161_700)):
        assert models._draw_binomial_count(ZeroUniform(), 161_700, p) == expected
