"""End-to-end acceptance battery.

Each check prints one ``[criterion N] PASS/FAIL`` line (visible with -s, or
in the captured output of a failing test) and asserts its pinned tolerance.
Runtime budgets are wall-clock seconds.  All runs are seeded and
deterministic: a re-run reproduces every number below bit for bit.
"""

import math
import random
import statistics
import time

import pytest

from hyperphase.analysis import (
    degree_profile,
    gw_survival,
    thresholds,
)
from hyperphase.combinatorics import binomial, colex_rank, colex_unrank
from hyperphase.components import JSetUnionFind, component_summary
from hyperphase.experiments import (
    ExperimentConfig,
    run_connectivity_probe,
    run_degree_experiment,
    run_hitting_time,
    run_phase_sweep,
    run_smoothness_probe,
)
from hyperphase.models import sample_binomial, second_round_probability
from hyperphase.params import Params
from oracles import bfs_components


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def giant_runs():
    """Shared 50-trial supercritical sweep at (3, 2, 150), eps = 0.2."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        params=Params(3, 2, 150), trials=50, base_seed=1, eps_grid=(0.2,)
    )
    (point,) = run_phase_sweep(cfg)
    return point, time.perf_counter() - t0


def test_criterion_1_giant_size(giant_runs):
    point, elapsed = giant_runs
    mean = point.largest_fraction.mean
    ok = 0.16 <= mean <= 0.24 and elapsed < 60.0
    report(
        1,
        ok,
        f"mean |L1|/C(150,2) = {mean:.4f}, band [0.16, 0.24] "
        f"(predicted 0.2), runtime {elapsed:.1f}s < 60s",
    )
    assert elapsed < 60.0
    assert 0.16 <= mean <= 0.24


def test_criterion_2_giant_uniqueness(giant_runs):
    point, _ = giant_runs
    ratios = [t.second / t.largest for t in point.trials if t.largest > 0]
    frac = sum(r <= 0.1 for r in ratios) / len(ratios)
    ok = frac >= 0.9
    report(2, ok, f"second/largest <= 0.1 in {frac:.0%} of trials, need >= 90%")
    assert frac >= 0.9


def test_criterion_3_subcritical_smallness():
    cfg = ExperimentConfig(
        params=Params(3, 2, 150), trials=50, base_seed=1, eps_grid=(-0.2,)
    )
    (point,) = run_phase_sweep(cfg)
    total = cfg.params.num_jsets
    frac = sum(t.largest / total < 0.02 for t in point.trials) / len(point.trials)
    ok = frac >= 0.9
    report(3, ok, f"largest/C(n,2) < 0.02 in {frac:.0%} of subcritical trials, need >= 90%")
    assert frac >= 0.9


def test_criterion_4_hitting_time():
    t0 = time.perf_counter()
    results = {}
    for params in (Params(3, 2, 30), Params(2, 1, 50)):
        cfg = ExperimentConfig(params=params, trials=100, base_seed=1)
        records = run_hitting_time(cfg)
        equal_frac = sum(r.t_c == r.t_i for r in records) / len(records)
        order_ok = all(r.t_i <= r.t_c for r in records)
        results[(params.k, params.j, params.n)] = (equal_frac, order_ok)
    elapsed = time.perf_counter() - t0
    ok = all(f >= 0.9 and o for f, o in results.values()) and elapsed < 120.0
    detail = ", ".join(
        f"(k={k},j={j},n={n}): T_c=T_i in {f:.0%}, T_i<=T_c {'always' if o else 'VIOLATED'}"
        for (k, j, n), (f, o) in results.items()
    )
    report(4, ok, f"{detail}, runtime {elapsed:.1f}s < 120s")
    assert elapsed < 120.0
    for frac, order_ok in results.values():
        assert order_ok
        assert frac >= 0.9


def test_criterion_5_connectivity_threshold():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        params=Params(3, 2, 100), omega=3.0, trials=100, base_seed=1
    )
    res = run_connectivity_probe(cfg)
    elapsed = time.perf_counter() - t0
    ok = (
        res.below.fraction_isolated >= 0.9
        and res.above.fraction_connected >= 0.8
        and elapsed < 120.0
    )
    report(
        5,
        ok,
        f"below: P(isolated j-set) = {res.below.fraction_isolated:.2f} (>= 0.9); "
        f"above: P(j-connected) = {res.above.fraction_connected:.2f} (>= 0.8); "
        f"runtime {elapsed:.1f}s < 120s",
    )
    assert elapsed < 120.0
    assert res.below.fraction_isolated >= 0.9
    assert res.above.fraction_connected >= 0.8


def test_criterion_6_poisson_limit():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        params=Params(3, 1, 100), s=0, c=0.0, trials=400, base_seed=1
    )
    res = run_degree_experiment(cfg)
    elapsed = time.perf_counter() - t0
    ok = res.tv_distance <= 0.15 and 0.7 <= res.mean_count <= 1.3 and elapsed < 120.0
    report(
        6,
        ok,
        f"TV(D_0 law, Poisson(1)) = {res.tv_distance:.4f} (<= 0.15), "
        f"mean D_0 = {res.mean_count:.3f} (in [0.7, 1.3]), runtime {elapsed:.1f}s < 120s",
    )
    assert elapsed < 120.0
    assert res.tv_distance <= 0.15
    assert 0.7 <= res.mean_count <= 1.3


def test_criterion_7_smoothness():
    cfg = ExperimentConfig(
        params=Params(3, 2, 150),
        gamma=0.3,
        trials=30,
        base_seed=1,
        ell_list=(1,),
    )
    trials = run_smoothness_probe(cfg)
    devs = [t.reports[1].max_rel_dev for t in trials if t.l1_size]
    med = statistics.median(devs)
    ok = med <= 0.5
    report(7, ok, f"median max_rel_dev over L1 = {med:.3f}, need <= 0.5")
    assert med <= 0.5


def test_criterion_8_oracle_equivalence():
    rng = random.Random(2024)
    checked = 0
    js_seen = set()
    while checked < 200:
        k = rng.choice((3, 4))
        n = rng.randint(k, 12)
        j = rng.randint(1, k - 1)
        p = rng.random()
        params = Params(k, j, n)
        h = sample_binomial(params, p, seed=checked)
        uf = JSetUnionFind(params)
        for e in h.edges:
            uf.apply_edge(e)
        mine = sorted(
            (frozenset(colex_unrank(r, j, n) for r in c) for c in uf.partition()),
            key=lambda c: sorted(c),
        )
        oracle = sorted(bfs_components(h), key=lambda c: sorted(c))
        assert mine == oracle, f"partition mismatch at k={k}, j={j}, n={n}, seed={checked}"
        js_seen.add((k, j))
        checked += 1
    assert js_seen == {(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)}
    report(8, True, f"union-find partition == BFS oracle on {checked} random instances")


def test_criterion_9_exact_conservation_suite():
    rng = random.Random(7)
    instances = 0
    for _ in range(40):
        k = rng.choice((2, 3, 4, 5))
        n = rng.randint(k, 13)
        j = rng.randint(1, k - 1)
        params = Params(k, j, n)
        h = sample_binomial(params, rng.random(), seed=instances)
        total = params.num_jsets
        profile = degree_profile(h)
        assert sum(profile.counts.values()) == total
        assert sum(s * c for s, c in profile.counts.items()) == params.jsets_per_edge * h.m
        summary = component_summary(h)
        uf = JSetUnionFind(params)
        for e in h.edges:
            uf.apply_edge(e)
        assert summary.isolated_count + sum(len(c) for c in uf.partition()) == total
        assert profile.count(0) == summary.isolated_count
        instances += 1

    bijections = 0
    for n, j in ((1000, 1), (400, 2), (50, 3), (30, 4), (22, 5), (18, 6)):
        total = binomial(n, j)
        assert total <= 10**5
        for rank in range(total):
            s = colex_unrank(rank, j, n)
            assert colex_rank(s) == rank
        bijections += total
    report(
        9,
        True,
        f"conservation identities exact on {instances} instances; "
        f"rank/unrank bijection over {bijections} ranks",
    )


def test_criterion_10_two_round_exposure():
    params = Params(3, 2, 20)
    p, p0 = 0.02, 0.005
    p_star = second_round_probability(p, p0)
    pairs = 2000
    union_counts = []
    for i in range(pairs):
        first = sample_binomial(params, p0, 10_000 + 2 * i)
        second = sample_binomial(params, p_star, 10_001 + 2 * i)
        union_counts.append(len(first.edge_set() | second.edge_set()))

    total = params.num_ksets
    mean_target = total * p
    var_target = total * p * (1 - p)
    mean_band = 3 * math.sqrt(var_target / pairs)
    # binomial moment oracle for the variance estimator's sampling band
    kurtosis = 3 + (1 - 6 * p * (1 - p)) / var_target
    mu4 = var_target**2 * kurtosis
    var_band = 3 * math.sqrt((mu4 - var_target**2 * (pairs - 3) / (pairs - 1)) / pairs)

    mean = statistics.fmean(union_counts)
    var = statistics.variance(union_counts)
    ok = abs(mean - mean_target) <= mean_band and abs(var - var_target) <= var_band
    report(
        10,
        ok,
        f"union H(p0)+H(p*): mean {mean:.3f} vs {mean_target:.3f} (+/-{mean_band:.3f}), "
        f"var {var:.3f} vs {var_target:.3f} (+/-{var_band:.3f})",
    )
    assert abs(mean - mean_target) <= mean_band
    assert abs(var - var_target) <= var_band


def test_criterion_11_gw_consistency():
    # subcritical side: survival identically 0 up to the threshold
    params = Params(3, 2, 150)
    p_g = thresholds(params).p_g
    for frac in (0.0, 0.25, 0.5, 0.9, 1.0):
        assert gw_survival(params, p_g * frac).survival == 0.0

    # independent fixed-point oracle at batch=1, rate=2
    q = 0.0
    for _ in range(10_000):
        q = math.exp(2.0 * (q - 1.0))
    oracle = 1.0 - q
    res = gw_survival(Params(2, 1, 100), 0.02)
    ok = abs(res.survival - oracle) <= 1e-6 and abs(res.survival - 0.79681) <= 1e-5
    report(
        11,
        ok,
        f"survival(batch=1, rate=2) = {res.survival:.8f}, oracle {oracle:.8f}, "
        f"|diff| = {abs(res.survival - oracle):.2e} <= 1e-6; survival 0 on [0, p_g]",
    )
    assert abs(res.survival - oracle) <= 1e-6
    assert abs(res.survival - 0.79681) <= 1e-5
