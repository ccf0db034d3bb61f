"""Exact small-n laws, from enumerating every edge set.

At (2,1,5) and (3,2,5) there are C(5, k) = 10 possible edges, so all 2^10
edge sets can be listed.  Per edge count M this counts the j-connected sets
and the sets with no isolated j-set.  A uniform M-subset of the edges has
the law of the process's first M edges and, mixed over Bin(N, p), of the
binomial model, so the counts give the exact distributions of the hitting
times T_c and T_i and the exact connectivity probabilities at any p.  The
components come from a union-find over j-set bitmasks written here, not
from the package's ``merge_ranks``.
"""

import math
from functools import cache
from itertools import combinations

import pytest

from hyperphase.analysis import RegimeParams
from hyperphase.experiments import ExperimentConfig, run_connectivity_probe, run_hitting_time
from hyperphase.params import Params

TRIALS = 2_000
SEED = 1


@cache
def enumerate_laws(k, j, n):
    """(connected, no_isolated): per M, how many M-edge sets of the C(n, k)
    k-sets of [n] are j-connected, and how many leave no j-set isolated."""
    jsets = {s: i for i, s in enumerate(combinations(range(1, n + 1), j))}
    masks = [sum(1 << jsets[s] for s in combinations(e, j)) for e in combinations(range(1, n + 1), k)]
    full = (1 << len(jsets)) - 1
    connected, no_isolated = [0] * (len(masks) + 1), [0] * (len(masks) + 1)
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
    return connected, no_isolated


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
    connected, no_isolated = enumerate_laws(params.k, params.j, params.n)
    records = run_hitting_time(ExperimentConfig(params, trials=TRIALS, base_seed=SEED))
    bound = 1.95 / math.sqrt(TRIALS)
    assert ks_distance([r.t_c for r in records], connected) <= bound
    assert ks_distance([r.t_i for r in records], no_isolated) <= bound


def test_connectivity_probe_laws():
    params = Params(3, 2, 5)
    connected, no_isolated = enumerate_laws(params.k, params.j, params.n)
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
    _, no_isolated = enumerate_laws(k, 1, n)
    for m, count in enumerate(no_isolated):
        law = sum((-1) ** r * math.comb(n, r) * math.comb(math.comb(n - r, k), m) for r in range(n + 1))
        assert law == count
