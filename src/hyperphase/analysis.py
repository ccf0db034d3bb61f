"""Closed-form thresholds, degree profiles, smoothness scoring, and the
branching-process survival approximation.

Logarithms are natural throughout; threshold formulas agree with the
isolated-count heuristic E[D_0] ~ C(n,j) * exp(-p * C(n, k-j)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .combinatorics import JSet, binomial, canonical_array, check_cap, jset_rank_array
from .errors import ConvergenceError, ValidationError
from .models import Hypergraph, _first_ranks
from .params import Params

GW_TOL = 1e-12
GW_MAX_ITERATIONS = 1000
SWEEP_DELTA = 0.25  # exponent constant of the sweep-regime check eps^2 * n^(1 - 2 delta)


@dataclass(frozen=True)
class Thresholds:
    """p_g: giant-emergence threshold; p_c: j-connectivity threshold."""

    p_g: float
    p_c: float


@dataclass(frozen=True)
class DegreeProfile:
    """counts[s] = number of j-sets contained in exactly s edges."""

    counts: dict[int, int]

    def count(self, s: int) -> int:
        return self.counts.get(s, 0)


@dataclass(frozen=True)
class SmoothnessReport:
    """How evenly a family of j-sets covers the ell-sets of [n]."""

    expected_per_ellset: float
    max_rel_dev: float
    mean_rel_dev: float
    sampled: bool


@dataclass(frozen=True)
class GWResult:
    """Survival of the Poisson-batch branching approximation.

    offspring_rate is the mean number of fresh edges seen from one j-set;
    each such edge contributes `batch` = C(k,j) - 1 new j-sets, so the mean
    offspring is batch * offspring_rate.
    """

    offspring_rate: float
    batch: int
    survival: float
    iterations: int


def thresholds(params: Params) -> Thresholds:
    """Exact evaluation of the two threshold formulas, in exact integers
    until the last division (no allocation, so no 64-bit cap)."""
    k, j, n = params.k, params.j, params.n
    denom = math.comb(n, k - j)
    return Thresholds(
        p_g=1.0 / ((math.comb(k, j) - 1) * denom),
        p_c=j * math.log(n) / denom,
    )


def predicted_giant_fraction(params: Params, eps: float) -> float:
    """Predicted |L1| / C(n, j) at p = (1 + eps) * p_g, for eps > 0: the
    eps -> 0 formula 2 eps / (C(k, j) - 1), unbounded (past 1 far above
    p_g); ``gw_survival`` (``hyperphase gw``) is the branching survival."""
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
    return DegreeProfile(counts)


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
    members: np.ndarray | Sequence[JSet],
    ell: int,
    params: Params,
    sample_cap: int = 10**6,
    *,
    seed: int = 0,
) -> SmoothnessReport:
    """Uniformity of ell-set coverage across a family S of j-sets.

    `members` holds S as the rows of an (|S|, j) integer array, such as
    ``largest_component_jsets`` returns, or as a list of j-set tuples.
    For each ell-set L, deg(L) = #{J in S : L subset of J} is compared to
    the flat-coverage value (|S| / C(n,j)) * C(n, j-ell); the report gives
    the max and mean relative deviation.  All C(n, ell) ell-sets are scored
    unless that exceeds sample_cap, in which case a uniform sample that
    ``models`` draws on `seed` is scored and the report's `sampled` flag is
    set.  Deviations are summed in lexicographic order of the ell-sets on
    the full path and in ascending colex rank on the sampled one.
    """
    j, n = params.j, params.n
    if not 0 <= ell < j:
        raise ValidationError(f"ell must satisfy 0 <= ell < j, got ell={ell}, j={j}")
    family = canonical_array(members, j, n)
    if family is None:
        raise ValidationError(f"smoothness_score needs a nonempty family of j-sets on [{n}]")
    if sample_cap < 1:
        raise ValidationError(f"sample_cap must be >= 1, got {sample_cap}")
    total_ellsets = binomial(n, ell)
    check_cap("ell-sets scored", min(total_ellsets, sample_cap))

    expected = len(family) / binomial(n, j) * binomial(n, j - ell)
    if total_ellsets <= sample_cap:
        sampled = False
        # lexicographic order is descending colex order of the mirror images
        # v -> n + 1 - v, so count the mirrored family and read it backwards
        mirrored = jset_rank_array(n + 1 - family[:, ::-1], ell, n)
        degs = np.bincount(mirrored.ravel(order="K"), minlength=total_ellsets)[::-1]
    else:
        sampled = True
        picked_ranks = np.sort(_first_ranks(total_ellsets, seed, sample_cap))
        ranks, counts = np.unique(jset_rank_array(family, ell, n), return_counts=True)
        at = np.searchsorted(ranks, picked_ranks).clip(max=len(ranks) - 1)
        degs = np.where(ranks[at] == picked_ranks, counts[at], 0)
    devs = np.abs(degs / expected - 1.0).tolist()
    return SmoothnessReport(
        expected_per_ellset=expected,
        max_rel_dev=max(devs),
        mean_rel_dev=sum(devs) / len(devs),
        sampled=sampled,
    )


def gw_survival(params: Params, p: float) -> GWResult:
    """Survival probability of the branching approximation to exploration.

    One active j-set sees Poisson(lam) fresh edges, lam = C(n, k-j) * p,
    each contributing batch = C(k,j) - 1 new j-sets, so survival solves
    s = F(s) = 1 - exp(-lam * (1 - (1 - s)^batch)).  Survival is 0 exactly
    when the mean offspring batch * lam is at most 1; above that, F(s) - s
    is concave with one positive root, and Newton's method from F(1), which
    lies above it, decreases monotonically onto it in tens of steps even
    where the plain fixed-point map's slope at the root nears 1.  F is
    evaluated through log1p and expm1 so survivals near 0 keep their
    relative precision.
    """
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p={p} outside [0, 1]")
    lam = math.comb(params.n, params.k - params.j) * p  # exact integers: no 64-bit cap
    batch = math.comb(params.k, params.j) - 1
    if batch * lam <= 1.0:
        return GWResult(lam, batch, 0.0, 0)
    s = -math.expm1(-lam)
    for iteration in range(1, GW_MAX_ITERATIONS + 1):
        e = lam * math.expm1(batch * math.log1p(-s) if s < 1.0 else -math.inf)  # log(1 - F(s))
        slope = math.exp(e) * lam * batch * (1.0 - s) ** (batch - 1)  # F'(s)
        s_next = s - (-math.expm1(e) - s) / (slope - 1.0)
        if s - s_next <= GW_TOL * s_next:  # or rounding stopped the descent
            return GWResult(lam, batch, max(s_next, 0.0), iteration)
        s = s_next
    raise ConvergenceError(
        f"survival root did not converge after {GW_MAX_ITERATIONS} Newton steps "
        f"(lam={lam}, batch={batch}, last s={s})"
    )


def regime_advisories(params: Params, eps: float | None = None, gamma: float | None = None) -> list[str]:
    """Advisory notes for a sweep distance `eps` from p_g and a smoothness
    margin `gamma` outside the asymptotic regime (None: not checked).

    Checks are heuristic scale requirements; they never block a run.
    """
    msgs: list[str] = []
    n, j = params.n, params.j
    if eps is not None:
        e = abs(eps)
        if e**3 * n**j < 100:
            msgs.append(f"eps^3 * n^j = {e ** 3 * n ** j:.3g} < 100: sweep regime is marginal")
        if e**2 * n ** (1 - 2 * SWEEP_DELTA) < 100:
            msgs.append(
                f"eps^2 * n^(1-2*delta) = {e ** 2 * n ** (1 - 2 * SWEEP_DELTA):.3g} < 100: "
                "sweep regime is marginal"
            )
    if gamma is not None and gamma**3 * n < 100:
        msgs.append(f"gamma^3 * n = {gamma ** 3 * n:.3g} < 100: smoothness regime is marginal")
    return msgs
