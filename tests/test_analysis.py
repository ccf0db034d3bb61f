import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperphase.analysis import (
    SmoothnessReport,
    degree_profile,
    degree_regime_p,
    gw_survival,
    poisson_limit_rate,
    poisson_pmf,
    predicted_giant_fraction,
    regime_advisories,
    smoothness_score,
    thresholds,
)
from hyperphase.combinatorics import binomial, colex_unrank, validate_subset
from hyperphase.components import component_summary
from hyperphase.errors import ResourceLimitError, ValidationError
from hyperphase.models import Hypergraph, sample_binomial
from hyperphase.params import Params


def test_thresholds_examples():
    th = thresholds(Params(3, 2, 100))
    assert th.p_g == pytest.approx(0.005, abs=1e-15)
    assert th.p_c == pytest.approx(2 * math.log(100) / 100, abs=1e-15)


def test_thresholds_graph_case_scale():
    # k=2, j=1 recovers the classical 1/n giant threshold
    assert thresholds(Params(2, 1, 100)).p_g == pytest.approx(0.01, abs=1e-15)
    assert thresholds(Params(2, 1, 1000)).p_g == pytest.approx(0.001, abs=1e-15)


def test_predicted_giant_fraction():
    assert predicted_giant_fraction(Params(3, 2, 50), 0.1) == pytest.approx(0.1)
    assert predicted_giant_fraction(Params(2, 1, 50), 0.1) == pytest.approx(0.2)
    assert predicted_giant_fraction(Params(4, 2, 50), 0.05) == pytest.approx(0.02)
    with pytest.raises(ValidationError):
        predicted_giant_fraction(Params(3, 2, 50), -0.1)
    with pytest.raises(ValidationError):
        predicted_giant_fraction(Params(3, 2, 50), 0.0)


def test_degree_profile_examples():
    single = Hypergraph(Params(3, 2, 3), ((1, 2, 3),))
    assert degree_profile(single).counts == {1: 3}
    two = Hypergraph(Params(3, 2, 4), ((1, 2, 3), (2, 3, 4)))
    assert degree_profile(two).counts == {0: 1, 1: 4, 2: 1}
    empty = Hypergraph(Params(3, 2, 6))
    assert degree_profile(empty).counts == {0: 15}
    assert degree_profile(empty).count(3) == 0


def brute_degree_counts(h):
    out = {}
    for jset in combinations(range(1, h.params.n + 1), h.params.j):
        deg = sum(1 for e in h.edges if set(jset) <= set(e))
        out[deg] = out.get(deg, 0) + 1
    return out


@given(st.integers(0, 500), st.floats(0.0, 0.6))
@settings(max_examples=30)
def test_degree_profile_matches_brute_force(seed, p):
    h = sample_binomial(Params(3, 2, 7), p, seed)
    profile = degree_profile(h)
    assert profile.counts == brute_degree_counts(h)
    assert sum(profile.counts.values()) == h.params.num_jsets
    assert sum(s * c for s, c in profile.counts.items()) == h.params.jsets_per_edge * h.m


@given(st.integers(0, 500), st.floats(0.0, 0.3))
@settings(max_examples=25)
def test_degree_zero_equals_isolated_count(seed, p):
    h = sample_binomial(Params(4, 2, 9), p, seed)
    assert degree_profile(h).count(0) == component_summary(h).isolated_count


def test_poisson_limit_rate_examples():
    assert poisson_limit_rate(Params(2, 1, 10), 0, 0.0) == pytest.approx(1.0)
    assert poisson_limit_rate(Params(3, 2, 10), 0, 0.0) == pytest.approx(0.5)
    assert poisson_limit_rate(Params(3, 2, 10), 1, 0.0) == pytest.approx(1.0)


def test_degree_formulas_refuse_negative_inputs():
    for formula in (poisson_limit_rate, degree_regime_p):
        with pytest.raises(ValidationError, match="degree class s must be >= 0, got -1"):
            formula(Params(3, 2, 10), -1, 0.0)
    with pytest.raises(ValidationError, match="Poisson rate must be >= 0, got -0.5"):
        poisson_pmf(-0.5, 0)


def test_degree_regime_p_examples():
    p = degree_regime_p(Params(3, 1, 100), 0, 0.0)
    assert p == pytest.approx(math.log(100) / 4950, rel=1e-12)
    params = Params(3, 2, 100)
    assert degree_regime_p(params, 0, 0.0) == pytest.approx(thresholds(params).p_c, rel=1e-12)
    assert degree_regime_p(params, 1, 0.0) == pytest.approx(0.10737519997784085, rel=1e-12)


def test_degree_regime_p_range_errors():
    with pytest.raises(ValidationError):
        degree_regime_p(Params(3, 2, 100), 0, 200.0)  # p > 1
    with pytest.raises(ValidationError):
        degree_regime_p(Params(3, 2, 100), 0, -100.0)  # p < 0


def test_poisson_pmf_examples():
    assert poisson_pmf(1.0, 0) == pytest.approx(math.exp(-1))
    assert poisson_pmf(0.0, 0) == 1.0
    assert poisson_pmf(0.0, 3) == 0.0
    assert poisson_pmf(0.5, 2) == pytest.approx(math.exp(-0.5) * 0.125)
    assert poisson_pmf(2.0, -1) == 0.0


@pytest.mark.parametrize("lam", [0.25, 1.0, 4.0, 20.0, 100.0])
def test_poisson_pmf_sums_to_one(lam):
    hi = math.ceil(lam + 12 * math.sqrt(lam) + 30)
    total = sum(poisson_pmf(lam, i) for i in range(hi + 1))
    assert abs(total - 1.0) < 1e-9


def smoothness_oracle(members, ell, params, sample_cap=10**6, *, seed=0):
    """Reference scorer: ell-set coverage counted in a dict over
    ``combinations``, deviations summed in the same orders."""
    j, n = params.j, params.n
    family = [validate_subset(s, j, n, "j-set") for s in members]
    coverage = {}
    for s in family:
        for L in combinations(s, ell):
            coverage[L] = coverage.get(L, 0) + 1
    expected = len(family) / binomial(n, j) * binomial(n, j - ell)
    total_ellsets = binomial(n, ell)
    if total_ellsets <= sample_cap:
        degs = [coverage.get(L, 0) for L in combinations(range(1, n + 1), ell)]
    else:
        rng = random.Random(seed)
        picked = set()
        while len(picked) < sample_cap:
            picked.add(rng.randrange(total_ellsets))
        degs = [coverage.get(colex_unrank(r, ell, n), 0) for r in sorted(picked)]
    devs = [abs(d / expected - 1.0) for d in degs]
    return SmoothnessReport(expected, max(devs), sum(devs) / len(devs), total_ellsets > sample_cap)


@given(st.data())
@settings(max_examples=60)
def test_smoothness_equals_dict_oracle(data):
    # j >= 3 separates lexicographic from colex order of the ell-sets
    j = data.draw(st.integers(3, 5))
    n = data.draw(st.integers(j + 1, j + 6))
    params = Params(j + 1, j, n)
    all_jsets = list(combinations(range(1, n + 1), j))
    family = data.draw(st.lists(st.sampled_from(all_jsets), min_size=1, max_size=15))
    seed = data.draw(st.integers(0, 100))
    for ell in range(j):
        total = binomial(n, ell)
        for cap in {10**6, data.draw(st.integers(1, total))}:
            expected = smoothness_oracle(family, ell, params, cap, seed=seed)
            assert smoothness_score(family, ell, params, cap, seed=seed) == expected
            assert smoothness_score(np.array(family), ell, params, cap, seed=seed) == expected


def test_smoothness_guards_the_scored_ellsets(monkeypatch):
    params = Params(4, 3, 10)
    monkeypatch.setenv("HYPERPHASE_MAX_JSETS", "20")
    with pytest.raises(ResourceLimitError, match="ell-sets scored = 45 exceeds the guardrail cap 20"):
        smoothness_score([(1, 2, 3)], 2, params)
    assert smoothness_score([(1, 2, 3)], 2, params, sample_cap=20).sampled
    monkeypatch.delenv("HYPERPHASE_MAX_JSETS")
    # refused before a single ell-set is drawn
    with pytest.raises(ResourceLimitError, match="ell-sets scored = 10000000000 exceeds"):
        smoothness_score([(1, 2, 3)], 2, Params(4, 3, 10**6), sample_cap=10**10)


def test_smoothness_complete_family():
    n = 150
    params = Params(3, 2, n)
    family = list(combinations(range(1, n + 1), 2))
    rep = smoothness_score(family, 1, params)
    assert rep.expected_per_ellset == pytest.approx(150.0)
    assert rep.max_rel_dev == pytest.approx(1 / 150)
    assert not rep.sampled


def test_smoothness_ell_zero_degenerate():
    params = Params(3, 2, 6)
    rep = smoothness_score([(1, 2), (3, 4)], 0, params)
    assert rep.max_rel_dev == 0.0
    assert rep.mean_rel_dev == 0.0
    assert rep.expected_per_ellset == pytest.approx(2.0)


def test_smoothness_hand_count():
    params = Params(3, 2, 4)
    rep = smoothness_score([(1, 2), (1, 3)], 1, params)
    # degrees (2, 1, 1, 0) against expected (2/6) * 4 = 4/3
    assert rep.expected_per_ellset == pytest.approx(4 / 3)
    assert rep.max_rel_dev == pytest.approx(1.0)
    assert rep.mean_rel_dev == pytest.approx((0.5 + 0.25 + 0.25 + 1.0) / 4)


def test_smoothness_validation():
    params = Params(3, 2, 5)
    with pytest.raises(ValidationError):
        smoothness_score([(1, 2)], 2, params)
    with pytest.raises(ValidationError):
        smoothness_score([], 1, params)
    with pytest.raises(ValidationError, match=r"needs a nonempty family of j-sets on \[5\]"):
        smoothness_score([(1, 2), (3,)], 1, params)  # ragged rows make no array


@pytest.mark.parametrize("cap", [0, -1])
def test_smoothness_rejects_a_sample_cap_below_one(cap):
    with pytest.raises(ValidationError, match=f"sample_cap must be >= 1, got {cap}"):
        smoothness_score([(1, 2)], 1, Params(3, 2, 30), sample_cap=cap)


def test_smoothness_sampling_path_is_deterministic():
    params = Params(3, 2, 30)
    family = [(1, 2), (2, 3), (10, 20)]
    a = smoothness_score(family, 1, params, sample_cap=10, seed=5)
    b = smoothness_score(family, 1, params, sample_cap=10, seed=5)
    assert a == b and a.sampled


@given(st.data())
@settings(max_examples=25)
def test_smoothness_relabeling_invariance(data):
    n = data.draw(st.integers(4, 9))
    params = Params(3, 2, n)
    all_pairs = list(combinations(range(1, n + 1), 2))
    family = data.draw(st.sets(st.sampled_from(all_pairs), min_size=1, max_size=8))
    perm = data.draw(st.permutations(list(range(1, n + 1))))
    relabeled = [tuple(sorted(perm[v - 1] for v in s)) for s in family]
    a = smoothness_score(sorted(family), 1, params)
    b = smoothness_score(sorted(relabeled), 1, params)
    assert a.max_rel_dev == pytest.approx(b.max_rel_dev)
    assert a.mean_rel_dev == pytest.approx(b.mean_rel_dev)


def test_gw_subcritical_is_zero():
    # batch * lam = 0.9
    res = gw_survival(Params(2, 1, 100), 0.009)
    assert res.batch * res.offspring_rate == pytest.approx(0.9)
    assert res.survival == 0.0 and res.iterations == 0


def test_gw_known_fixed_point():
    # independent oracle: plain iteration of q = exp(2 * (q - 1))
    q = 0.0
    for _ in range(5000):
        q = math.exp(2.0 * (q - 1.0))
    res = gw_survival(Params(2, 1, 100), 0.02)
    assert res.batch == 1 and res.offspring_rate == pytest.approx(2.0)
    assert abs(res.survival - (1.0 - q)) < 1e-6
    assert res.survival == pytest.approx(0.79681213, abs=1e-6)


def test_gw_converges_near_criticality():
    # mean offspring 1 + eps: the fixed-point map's slope at the root is
    # ~1 - eps, so plain iteration creeps (1e-4) or gives up (1e-8).
    # Independent oracle: bisection on s = -expm1(lam * expm1(batch * log1p(-s)))
    params = Params(3, 2, 100)
    for eps in (1e-4, 1e-8):
        p = thresholds(params).p_g * (1 + eps)
        lam, batch = 100 * p, 2

        def excess(s):
            return s + math.expm1(lam * math.expm1(batch * math.log1p(-s)))

        lo, hi = 1e-12, 1.0  # excess(lo) < 0 < excess(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if excess(mid) < 0 else (lo, mid)
        res = gw_survival(params, p)
        assert (res.offspring_rate, res.batch) == pytest.approx((lam, batch))
        assert abs(res.survival - lo) < 1e-13 and res.iterations < 50, eps


def test_gw_survival_close_to_predicted_fraction():
    # first-order agreement of the fixed point with 2*eps/(C(k,j)-1)
    params = Params(3, 2, 1000)
    eps = 0.2
    p = (1 + eps) * thresholds(params).p_g
    res = gw_survival(params, p)
    predicted = predicted_giant_fraction(params, eps)
    assert abs(res.survival - predicted) / predicted <= 0.25


def test_gw_monotone_in_p_and_zero_below_threshold():
    params = Params(3, 2, 200)
    p_g = thresholds(params).p_g
    for x in (0.01, 0.25, 0.5, 0.99, 1.0):
        assert gw_survival(params, p_g * (1 - x)).survival == 0.0
    prev = -1.0
    for mult in (0.5, 1.0, 1.5, 2.0, 4.0, 8.0):
        s = gw_survival(params, p_g * mult).survival
        assert s >= prev
        prev = s


def test_gw_validates_p():
    with pytest.raises(ValidationError):
        gw_survival(Params(3, 2, 10), 1.5)


def test_regime_advisories():
    params = Params(3, 2, 150)
    assert regime_advisories(params) == []
    msgs = regime_advisories(params, eps=0.2, gamma=0.3)
    assert any("eps" in m for m in msgs)
    assert any("gamma" in m for m in msgs)
    # comfortable regime: large eps and gamma at large n
    quiet = regime_advisories(Params(2, 1, 10**6), eps=0.5, gamma=0.5)
    assert quiet == []
