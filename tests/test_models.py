import math
import statistics
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperphase.combinatorics import binomial
from hyperphase.errors import ResourceLimitError, ValidationError
from hyperphase.models import (
    EdgeStream,
    Hypergraph,
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
