"""Exact small-n laws, from enumerating every edge set.

At (2,1,5) and (3,2,5) there are C(5, k) = 10 possible edges, so all 2^10
edge sets can be listed.  Per edge count M this counts the j-connected sets
and the sets with no isolated j-set, and sums |L1| and |L1|^2.  A uniform
M-subset of the edges has the law of the process's first M edges and, mixed
over Bin(N, p), of the binomial model, so the counts give the exact
distributions of the hitting times T_c and T_i and the exact connectivity
probabilities and |L1| moments at any p.  The components come from a
union-find over j-set bitmasks written here, not from the package's
``merge_ranks``.
"""

import math
from functools import cache
from itertools import combinations

import pytest

from hyperphase import models
from hyperphase.analysis import RegimeParams
from hyperphase.experiments import ExperimentConfig, run_connectivity_probe, run_hitting_time, run_phase_sweep
from hyperphase.params import Params

TRIALS = 2_000
SEED = 1


@cache
def enumerate_laws(k, j, n):
    """(connected, no_isolated, l1_sum, l1_squares): per M, how many M-edge
    sets of the C(n, k) k-sets of [n] are j-connected, how many leave no
    j-set isolated, and the sum over them of |L1| and of |L1|^2, |L1| being
    the j-set count of the largest non-trivial component (0 with no edges)."""
    jsets = {s: i for i, s in enumerate(combinations(range(1, n + 1), j))}
    masks = [sum(1 << jsets[s] for s in combinations(e, j)) for e in combinations(range(1, n + 1), k)]
    full = (1 << len(jsets)) - 1
    connected, no_isolated, l1_sum, l1_squares = ([0] * (len(masks) + 1) for _ in range(4))
    for chosen in range(1 << len(masks)):
        parts = []  # disjoint j-set bitmasks of the non-trivial components
        for e, mask in enumerate(masks):
            if chosen >> e & 1:
                joined = [p for p in parts if p & mask]
                parts = [p for p in parts if not p & mask] + [sum(joined, 0) | mask]
        covered = sum(parts, 0)  # the parts are disjoint, so their sum is their union
        m = chosen.bit_count()
        no_isolated[m] += covered == full
        connected[m] += covered == full and len(parts) == 1
        largest = max((p.bit_count() for p in parts), default=0)
        l1_sum[m] += largest
        l1_squares[m] += largest * largest
    return connected, no_isolated, l1_sum, l1_squares


def ks_distance(samples, counts):
    """sup_M |F_emp(M) - P(T <= M)|, with P(T <= M) = counts[M] / C(N, M)."""
    big_n = len(counts) - 1
    return max(
        abs(sum(t <= m for t in samples) / len(samples) - counts[m] / math.comb(big_n, m))
        for m in range(big_n + 1)
    )


def mixture(counts, p):
    """P(the property) in the binomial model: sum_M counts[M] p^M (1-p)^(N-M)."""
    big_n = len(counts) - 1
    return sum(c * p**m * (1 - p) ** (big_n - m) for m, c in enumerate(counts))


@pytest.mark.parametrize("params", [Params(2, 1, 5), Params(3, 2, 5)])
def test_hitting_time_laws(params):
    # T <= M exactly when the first M edges have the (monotone) property
    connected, no_isolated, _, _ = enumerate_laws(params.k, params.j, params.n)
    records = run_hitting_time(ExperimentConfig(params, trials=TRIALS, base_seed=SEED))
    bound = 1.95 / math.sqrt(TRIALS)
    assert ks_distance([r.t_c for r in records], connected) <= bound
    assert ks_distance([r.t_i for r in records], no_isolated) <= bound


def test_connectivity_probe_laws():
    params = Params(3, 2, 5)
    connected, no_isolated, _, _ = enumerate_laws(params.k, params.j, params.n)
    cfg = ExperimentConfig(params, RegimeParams(omega=1.0), trials=TRIALS, base_seed=SEED)
    res = run_connectivity_probe(cfg)
    for side in (res.below, res.above):
        for observed, exact in (
            (side.fraction_connected, mixture(connected, side.p)),
            (side.fraction_isolated, 1 - mixture(no_isolated, side.p)),
        ):
            z = (observed - exact) / math.sqrt(exact * (1 - exact) / TRIALS)
            assert abs(z) <= 4, (side.label, observed, exact)


@pytest.mark.parametrize("k,n", [(2, 5), (3, 5)])
def test_isolated_vertex_inclusion_exclusion(k, n):
    # j = 1: M edges miss a given set of r vertices in C(C(n - r, k), M) ways
    _, no_isolated, _, _ = enumerate_laws(k, 1, n)
    for m, count in enumerate(no_isolated):
        law = sum((-1) ** r * math.comb(n, r) * math.comb(math.comb(n - r, k), m) for r in range(n + 1))
        assert law == count


@pytest.mark.parametrize(
    "params,eps_grid", [(Params(3, 2, 5), (-0.5, 1.0, 4.0, 6.0)), (Params(2, 1, 5), (-0.5, 0.5, 1.5, 3.0))]
)
def test_phase_sweep_mean_largest_law(params, eps_grid):
    # p straddles 1/2, so the trials grow both a prefix and a complement chain
    _, _, l1_sum, l1_squares = enumerate_laws(params.k, params.j, params.n)
    points = run_phase_sweep(ExperimentConfig(params, trials=TRIALS, base_seed=SEED, eps_grid=eps_grid))
    assert min(point.p for point in points) < 0.5 < max(point.p for point in points)
    for point in points:
        exact = mixture(l1_sum, point.p)
        variance = mixture(l1_squares, point.p) - exact**2
        observed = sum(trial.largest for trial in point.trials) / TRIALS
        z = (observed - exact) / math.sqrt(variance / TRIALS)
        assert abs(z) <= 4, (point.eps, observed, exact)


# 99.99% quantiles of chi-square, frozen (degrees of freedom: value)
CHI2_9999 = {5: 25.7448, 6: 27.8563, 8: 31.8276}


@pytest.mark.parametrize("p", [0.1, 0.5, 0.8])
def test_binomial_edge_count_law(p):
    # the sampled edge count against Binomial(C(5, 3) = 10, p) on trial
    # seeds 1..4000; tail bins pool until each expects 5 counts or more
    params, seeds = Params(3, 2, 5), range(1, 4001)
    big_n = params.num_ksets
    expected = [len(seeds) * math.comb(big_n, m) * p**m * (1 - p) ** (big_n - m) for m in range(big_n + 1)]
    observed = [0] * (big_n + 1)
    for seed in seeds:
        observed[models._binomial_count(params, p, seed)[0]] += 1
    lo = next(m for m in range(big_n + 1) if sum(expected[: m + 1]) >= 5)
    hi = next(m for m in range(big_n, -1, -1) if sum(expected[m:]) >= 5)
    cuts = [(0, lo + 1), *((m, m + 1) for m in range(lo + 1, hi)), (hi, big_n + 1)]
    pooled = [(sum(observed[a:b]), sum(expected[a:b])) for a, b in cuts]
    assert lo < hi and min(e for _, e in pooled) >= 5
    chi2 = sum((o - e) ** 2 / e for o, e in pooled)
    assert chi2 <= CHI2_9999[len(pooled) - 1], (p, chi2, len(pooled) - 1)
