"""Exact small-n laws, from enumerating every edge set.

At (2,1,5) and (3,2,5) there are C(5, k) = 10 possible edges, and at
(2,1,6), (4,2,6) and (4,3,6) there are C(6, k) = 15, so all 2^10 or 2^15
edge sets can be listed.  Per edge count M this counts the j-connected sets
and the sets with no isolated j-set, and sums |L1| and |L1|^2.  A uniform
M-subset of the edges has the law of the process's first M edges and, mixed
over Bin(N, p), of the binomial model, so the counts give the exact
distributions of the hitting times T_c and T_i and the exact connectivity
probabilities and |L1| moments at any p.  The components come from a
union-find over j-set bitmasks written here, not from the package's
``merge_ranks``: each edge set's components are those of the set without
its lowest edge, with that edge's j-sets merged in.
"""

import math
from functools import cache
from itertools import combinations

import pytest

from hyperphase import models
from hyperphase.experiments import ExperimentConfig, run_connectivity_probe, run_hitting_time, run_phase_sweep
from hyperphase.params import Params

TRIALS = 2_000
TRIALS_15 = 1_000  # the static runs at C(n, k) = 15, at half the trials to bound their time
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
    parts_of = [[]]  # per edge set, the disjoint j-set bitmasks of its non-trivial components
    for chosen in range(1, 1 << len(masks)):
        low = chosen & -chosen
        mask, rest = masks[low.bit_length() - 1], parts_of[chosen ^ low]
        parts_of.append([p for p in rest if not p & mask] + [sum((p for p in rest if p & mask), 0) | mask])
    for chosen, parts in enumerate(parts_of):
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


@pytest.mark.parametrize(
    "params", [Params(2, 1, 5), Params(3, 2, 5), Params(2, 1, 6), Params(4, 2, 6), Params(4, 3, 6)]
)
def test_hitting_time_laws(params):
    # T <= M exactly when the first M edges have the (monotone) property
    connected, no_isolated, _, _ = enumerate_laws(params.k, params.j, params.n)
    records = run_hitting_time(ExperimentConfig(params, trials=TRIALS, base_seed=SEED))
    bound = 1.95 / math.sqrt(TRIALS)
    assert ks_distance([r.t_c for r in records], connected) <= bound
    assert ks_distance([r.t_i for r in records], no_isolated) <= bound


def check_probe_laws(params, omega, trials):
    """Both sides' connected and isolated fractions against the exact laws."""
    connected, no_isolated, _, _ = enumerate_laws(params.k, params.j, params.n)
    cfg = ExperimentConfig(params, omega=omega, trials=trials, base_seed=SEED)
    res = run_connectivity_probe(cfg)
    for label, side in (("below", res.below), ("above", res.above)):
        for observed, exact in (
            (side.fraction_connected, mixture(connected, side.p)),
            (side.fraction_isolated, 1 - mixture(no_isolated, side.p)),
        ):
            z = (observed - exact) / math.sqrt(exact * (1 - exact) / trials)
            assert abs(z) <= 4, (label, observed, exact)


def test_connectivity_probe_laws():
    check_probe_laws(Params(3, 2, 5), 1.0, TRIALS)


@pytest.mark.parametrize(  # at (4,3,6) omega = 1 puts p above 1
    "params,omega", [(Params(2, 1, 6), 1.0), (Params(4, 2, 6), 1.0), (Params(4, 3, 6), 0.5)]
)
def test_connectivity_probe_laws_at_15_edges(params, omega):
    check_probe_laws(params, omega, TRIALS_15)


@pytest.mark.parametrize("k,n", [(2, 5), (3, 5), (2, 6)])
def test_isolated_vertex_inclusion_exclusion(k, n):
    # j = 1: M edges miss a given set of r vertices in C(C(n - r, k), M) ways
    _, no_isolated, _, _ = enumerate_laws(k, 1, n)
    for m, count in enumerate(no_isolated):
        law = sum((-1) ** r * math.comb(n, r) * math.comb(math.comb(n - r, k), m) for r in range(n + 1))
        assert law == count


def test_spanning_trees_follow_cayley():
    # n - 1 edges join the n vertices of a graph exactly as a spanning tree: n^(n - 2) of them
    for n in (5, 6):
        assert enumerate_laws(2, 1, n)[0][n - 1] == n ** (n - 2)


def check_sweep_law(params, eps_grid, trials):
    """Each point's mean |L1| against the exact law.  The grid's p straddles
    1/2, so the trials grow both a prefix and a complement chain."""
    _, _, l1_sum, l1_squares = enumerate_laws(params.k, params.j, params.n)
    points = run_phase_sweep(ExperimentConfig(params, trials=trials, base_seed=SEED, eps_grid=eps_grid))
    assert min(point.p for point in points) < 0.5 < max(point.p for point in points)
    for eps, point in zip(eps_grid, points):
        exact = mixture(l1_sum, point.p)
        variance = mixture(l1_squares, point.p) - exact**2
        observed = sum(trial.largest for trial in point.trials) / trials
        z = (observed - exact) / math.sqrt(variance / trials)
        assert abs(z) <= 4, (eps, observed, exact)


@pytest.mark.parametrize(
    "params,eps_grid", [(Params(3, 2, 5), (-0.5, 1.0, 4.0, 6.0)), (Params(2, 1, 5), (-0.5, 0.5, 1.5, 3.0))]
)
def test_phase_sweep_mean_largest_law(params, eps_grid):
    check_sweep_law(params, eps_grid, TRIALS)


@pytest.mark.parametrize(  # p_g = 1/6, 1/75 and 1/18
    "params,eps_grid",
    [
        (Params(2, 1, 6), (-0.5, 0.5, 1.5, 3.0)),
        (Params(4, 2, 6), (-0.5, 4.0, 20.0, 45.0)),
        (Params(4, 3, 6), (-0.5, 1.0, 5.0, 12.0)),
    ],
)
def test_phase_sweep_mean_largest_law_at_15_edges(params, eps_grid):
    check_sweep_law(params, eps_grid, TRIALS_15)


# 99.99% quantiles of chi-square, frozen (degrees of freedom: value)
CHI2_9999 = {5: 25.7448, 6: 27.8563, 8: 31.8276, 14: 42.5793, 47: 91.8412}


def pooled_chi2(observed, expected):
    """Chi-square and its degrees of freedom over one bin per count that
    expects 5 or more (a run, the binomial pmf being unimodal), and one bin
    per tail past the run, joined to the run's end bin if it expects less."""
    big = [m for m, e in enumerate(expected) if e >= 5]
    a, b = big[0], big[-1] + 1
    starts = [*range(a, b), *([b] if sum(expected[b:]) >= 5 else [])]
    starts = [0, *starts] if sum(expected[:a]) >= 5 else [0, *starts[1:]]
    bins = list(zip(starts, [*starts[1:], len(expected)]))
    pooled = [(sum(observed[lo:hi]), sum(expected[lo:hi])) for lo, hi in bins]
    assert min(e for _, e in pooled) >= 5
    return sum((o - e) ** 2 / e for o, e in pooled), len(pooled) - 1


@pytest.mark.parametrize("p", [0.1, 0.5, 0.8])
def test_binomial_edge_count_law(p):
    # the sampled edge count against Binomial(C(5, 3) = 10, p) on trial seeds 1..4000
    params, seeds = Params(3, 2, 5), range(1, 4001)
    big_n = params.num_ksets
    expected = [len(seeds) * math.comb(big_n, m) * p**m * (1 - p) ** (big_n - m) for m in range(big_n + 1)]
    observed = [0] * (big_n + 1)
    for seed in seeds:
        observed[models._binomial_count(params, p, seed)[0]] += 1
    chi2, dof = pooled_chi2(observed, expected)
    assert chi2 <= CHI2_9999[dof], (p, chi2, dof)


@pytest.mark.parametrize("mean", [5, 50])
def test_binomial_edge_count_law_past_2_53(mean):
    # C(10^5, 4) ~ 4.2e18 possible edges, on trial seeds 1..20,000: the
    # count is Binomial(N, p) past 2^53 too.  The pmf is summed in log space
    # from exact integer logs (lgamma(N + 1) cancels at this N); counts past
    # `top` (mean + 12 sd + 20, mass below 1e-20) join the last bin
    params, seeds = Params(4, 1, 10**5), range(1, 20_001)
    big_n = params.num_ksets
    p = mean / big_n
    top = math.ceil(mean + 12 * math.sqrt(mean) + 20)
    log_p, log_q = math.log(p), math.log1p(-p)
    expected = [len(seeds) * math.exp(math.log(math.comb(big_n, m)) + m * log_p + (big_n - m) * log_q)
                for m in range(top + 1)]
    observed = [0] * (top + 1)
    for seed in seeds:
        observed[min(models._binomial_count(params, p, seed)[0], top)] += 1
    chi2, dof = pooled_chi2(observed, expected)
    assert chi2 <= CHI2_9999[dof], (mean, chi2, dof)
