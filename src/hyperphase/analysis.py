"""Closed-form thresholds, degree profiles, smoothness scoring, and the
branching-process survival approximation.

Logarithms are natural throughout; threshold formulas agree with the
isolated-count heuristic E[D_0] ~ C(n,j) * exp(-p * C(n, k-j)).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .combinatorics import JSet, binomial, colex_unrank, jset_rank_array, validate_subset
from .errors import ConvergenceError, ValidationError
from .models import Hypergraph
from .params import Params

GW_TOL = 1e-12
GW_MAX_ITERATIONS = 10**6


@dataclass(frozen=True)
class Thresholds:
    """p_g: giant-emergence threshold; p_c: j-connectivity threshold."""

    p_g: float
    p_c: float


@dataclass(frozen=True)
class RegimeParams:
    """Regime constants for concrete runs.

    eps: signed distance from p_g for phase sweeps; gamma: supercritical
    margin for smoothness probes; omega: offset from p_c for connectivity
    probes; s, c: degree class and limit constant for degree runs; delta:
    exponent constant in the sweep-regime check.  Fields are None until a
    run needs them.
    """

    eps: float | None = None
    gamma: float | None = None
    omega: float | None = None
    s: int | None = None
    c: float | None = None
    delta: float = 0.25


@dataclass(frozen=True)
class DegreeProfile:
    """counts[s] = number of j-sets contained in exactly s edges."""

    params: Params
    m: int
    counts: dict[int, int]

    def count(self, s: int) -> int:
        return self.counts.get(s, 0)


@dataclass(frozen=True)
class SmoothnessReport:
    """How evenly a family of j-sets covers the ell-sets of [n]."""

    ell: int
    subset_size: int
    expected_per_ellset: float
    max_rel_dev: float
    mean_rel_dev: float
    sampled: bool


@dataclass(frozen=True)
class GWResult:
    """Survival of the Poisson-batch branching approximation.

    offspring_rate is the mean number of fresh edges seen from one j-set;
    each such edge contributes `batch` = C(k,j) - 1 new j-sets.
    """

    offspring_rate: float
    batch: int
    mean_offspring: float
    survival: float
    iterations: int


def thresholds(params: Params) -> Thresholds:
    """Exact evaluation of the two threshold formulas."""
    k, j, n = params.k, params.j, params.n
    denom = binomial(n, k - j)
    return Thresholds(
        p_g=1.0 / ((binomial(k, j) - 1) * denom),
        p_c=j * math.log(n) / denom,
    )


def predicted_giant_fraction(params: Params, eps: float) -> float:
    """Predicted |L1| / C(n, j) at p = (1 + eps) * p_g, for eps > 0."""
    if eps <= 0:
        raise ValidationError(f"eps must be positive (no giant below threshold), got {eps}")
    return 2.0 * eps / (binomial(params.k, params.j) - 1)


def degree_profile(h: Hypergraph) -> DegreeProfile:
    """Exact degree census over all C(n, j) j-sets in one pass over edges."""
    params = h.params
    # degrees of the touched j-sets only: memory scales with m, not C(n, j)
    _, deg = np.unique(jset_rank_array(h.array, params.j, params.n), return_counts=True)
    hist = np.bincount(deg, minlength=1)
    hist[0] = params.num_jsets - len(deg)
    counts = {s: c for s, c in enumerate(hist.tolist()) if c}
    return DegreeProfile(params=params, m=h.m, counts=counts)


def poisson_limit_rate(params: Params, s: int, c: float) -> float:
    """Limit rate j^s * e^(-c) / (j! * s!) for the degree-s count."""
    if s < 0:
        raise ValidationError(f"degree class s must be >= 0, got {s}")
    j = params.j
    return j**s * math.exp(-c) / (math.factorial(j) * math.factorial(s))


def degree_regime_p(params: Params, s: int, c: float) -> float:
    """Edge probability (j*ln n + s*ln ln n + c) / C(n, k-j)."""
    if s < 0:
        raise ValidationError(f"degree class s must be >= 0, got {s}")
    j, n = params.j, params.n
    p = (j * math.log(n) + s * math.log(math.log(n)) + c) / binomial(n, params.k - j)
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"degree-regime probability {p} outside [0, 1]")
    return p


def poisson_pmf(lam: float, i: int) -> float:
    """P(Poisson(lam) = i), stable in log space for large i."""
    if lam < 0:
        raise ValidationError(f"Poisson rate must be >= 0, got {lam}")
    if i < 0:
        return 0.0
    if lam == 0.0:
        return 1.0 if i == 0 else 0.0
    return math.exp(i * math.log(lam) - lam - math.lgamma(i + 1))


def smoothness_score(
    members: list[JSet] | tuple[JSet, ...],
    ell: int,
    params: Params,
    sample_cap: int = 10**6,
    *,
    seed: int = 0,
) -> SmoothnessReport:
    """Uniformity of ell-set coverage across a family S of j-sets.

    For each ell-set L, deg(L) = #{J in S : L subset of J} is compared to
    the flat-coverage value (|S| / C(n,j)) * C(n, j-ell); the report gives
    the max and mean relative deviation.  All C(n, ell) ell-sets are scored
    unless that exceeds sample_cap, in which case a seeded uniform sample
    is scored and the report's `sampled` flag is set.
    """
    j, n = params.j, params.n
    if not 0 <= ell < j:
        raise ValidationError(f"ell must satisfy 0 <= ell < j, got ell={ell}, j={j}")
    family = [validate_subset(s, j, n, "j-set") for s in members]
    if not family:
        raise ValidationError("smoothness_score needs a nonempty family of j-sets")

    coverage: dict[tuple[int, ...], int] = {}
    for s in family:
        for L in combinations(s, ell):
            coverage[L] = coverage.get(L, 0) + 1

    expected = len(family) / binomial(n, j) * binomial(n, j - ell)
    total_ellsets = binomial(n, ell)
    if total_ellsets <= sample_cap:
        sampled = False
        degs = (coverage.get(L, 0) for L in combinations(range(1, n + 1), ell))
        devs = [abs(d / expected - 1.0) for d in degs]
    else:
        sampled = True
        rng = random.Random(seed)
        picked: set[int] = set()
        while len(picked) < sample_cap:
            picked.add(rng.randrange(total_ellsets))
        devs = [
            abs(coverage.get(colex_unrank(r, ell, n), 0) / expected - 1.0)
            for r in sorted(picked)
        ]
    return SmoothnessReport(
        ell=ell,
        subset_size=len(family),
        expected_per_ellset=expected,
        max_rel_dev=max(devs),
        mean_rel_dev=sum(devs) / len(devs),
        sampled=sampled,
    )


def gw_survival(params: Params, p: float) -> GWResult:
    """Survival probability of the branching approximation to exploration.

    One active j-set sees Poisson(lam) fresh edges, lam = C(n, k-j) * p,
    each contributing batch = C(k,j) - 1 new j-sets, so extinction solves
    q = exp(lam * (q^batch - 1)).  Iterating from q0 = 0 converges to the
    smallest root, i.e. the true extinction probability.  Survival is 0
    exactly when the mean offspring batch * lam is at most 1.
    """
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p={p} outside [0, 1]")
    lam = binomial(params.n, params.k - params.j) * p
    batch = binomial(params.k, params.j) - 1
    mean_offspring = batch * lam
    if mean_offspring <= 1.0:
        return GWResult(lam, batch, mean_offspring, 0.0, 0)
    q = 0.0
    for iteration in range(1, GW_MAX_ITERATIONS + 1):
        q_next = math.exp(lam * (q**batch - 1.0))
        # rate ~ the map's slope at the root, which nears 1 at criticality:
        # the distance to the root is at most step * rate / (1 - rate)
        rate = lam * batch * q_next**batch
        if abs(q_next - q) * rate < GW_TOL * (1.0 - rate):
            return GWResult(lam, batch, mean_offspring, 1.0 - q_next, iteration)
        q = q_next
    raise ConvergenceError(
        f"extinction fixed point did not converge after {GW_MAX_ITERATIONS} iterations "
        f"(lam={lam}, batch={batch}, last q={q})"
    )


def regime_advisories(params: Params, regime: RegimeParams) -> list[str]:
    """Advisory notes for parameters outside the asymptotic regime.

    Checks are heuristic scale requirements; they never block a run.
    """
    msgs: list[str] = []
    n, j = params.n, params.j
    if regime.eps is not None:
        e = abs(regime.eps)
        if e**3 * n**j < 100:
            msgs.append(f"eps^3 * n^j = {e ** 3 * n ** j:.3g} < 100: sweep regime is marginal")
        if e**2 * n ** (1 - 2 * regime.delta) < 100:
            msgs.append(
                f"eps^2 * n^(1-2*delta) = {e ** 2 * n ** (1 - 2 * regime.delta):.3g} < 100: "
                "sweep regime is marginal"
            )
    if regime.gamma is not None and regime.gamma**3 * n < 100:
        msgs.append(
            f"gamma^3 * n = {regime.gamma ** 3 * n:.3g} < 100: smoothness regime is marginal"
        )
    return msgs
