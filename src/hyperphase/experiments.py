"""Seeded Monte Carlo experiment drivers.

Every runner is a pure function of its ExperimentConfig: trial t uses the
generator seeded with ``trial_seed(base_seed, t)``, the seed is recorded in
the trial's row, and a re-run reproduces every record bit for bit.  Trials
are independent, so they could execute in parallel; results are keyed by
trial index either way.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass, field

from .analysis import (
    RegimeParams,
    SmoothnessReport,
    degree_profile,
    degree_regime_p,
    poisson_limit_rate,
    poisson_pmf,
    predicted_giant_fraction,
    smoothness_score,
    thresholds,
)
from .combinatorics import binomial
from .components import JSetUnionFind, component_summary, largest_component_jsets
from .errors import ValidationError
from .models import process_stream, sample_binomial, trial_seed
from .params import Params


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for all experiment drivers."""

    params: Params
    regime: RegimeParams = field(default_factory=RegimeParams)
    trials: int = 50
    base_seed: int = 1
    eps_grid: tuple[float, ...] = ()
    ell_list: tuple[int, ...] = ()
    sample_cap: int = 10**6

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if any(eps == 0 for eps in self.eps_grid):
            raise ValidationError("eps_grid values must be nonzero")
        if self.sample_cap < 1:
            raise ValidationError(f"sample_cap must be >= 1, got {self.sample_cap}")

    def require(self, key: str):
        value = getattr(self.regime, key)
        if value is None:
            raise ValidationError(f"config key '{key}' is required for this experiment")
        return value


@dataclass(frozen=True)
class Stats:
    """Mean, sample standard deviation (n-1), min, max, median."""

    mean: float
    stddev: float
    minimum: float
    maximum: float
    median: float


def aggregate(values: list[float] | tuple[float, ...]) -> Stats:
    """Standard summary statistics; stddev of a single value is 0."""
    if not values:
        raise ValidationError("aggregate needs at least one value")
    vals = [float(v) for v in values]
    return Stats(
        mean=statistics.fmean(vals),
        stddev=statistics.stdev(vals) if len(vals) > 1 else 0.0,
        minimum=min(vals),
        maximum=max(vals),
        median=statistics.median(vals),
    )


@dataclass(frozen=True)
class SweepTrial:
    trial: int
    seed: int
    largest: int
    second: int


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of a phase sweep, with per-trial component sizes."""

    eps: float
    p: float
    trials: tuple[SweepTrial, ...]
    largest_fraction: Stats
    predicted_fraction: float | None


@dataclass(frozen=True)
class HittingRecord:
    """Process hitting times: T_c for j-connectivity, T_i for the last
    isolated j-set disappearing.  T_i <= T_c always."""

    trial: int
    seed: int
    t_c: int
    t_i: int
    equal: bool


@dataclass(frozen=True)
class DegreeTrial:
    trial: int
    seed: int
    count: int


@dataclass(frozen=True)
class DegreeRunResult:
    """Empirical law of the degree-s count versus its Poisson target."""

    s: int
    c: float
    p: float
    poisson_rate: float
    trials: tuple[DegreeTrial, ...]
    empirical_pmf: dict[int, float]
    tv_distance: float
    mean_count: float


@dataclass(frozen=True)
class ProbeTrial:
    trial: int
    seed: int
    connected: bool
    has_isolated: bool


@dataclass(frozen=True)
class ProbeSide:
    label: str
    p: float
    trials: tuple[ProbeTrial, ...]
    fraction_connected: float
    fraction_isolated: float


@dataclass(frozen=True)
class ConnectivityProbeResult:
    below: ProbeSide
    above: ProbeSide


@dataclass(frozen=True)
class SmoothnessTrial:
    """Smoothness of the largest component in one draw; flagged when the
    draw had no edges at all (pathological subcritical sample)."""

    trial: int
    seed: int
    flagged: bool
    l1_size: int
    reports: dict[int, SmoothnessReport]


def run_phase_sweep(cfg: ExperimentConfig) -> list[SweepPoint]:
    """Largest/second component sizes at p = (1 + eps) * p_g over a grid."""
    cfg.params.check_jsets()
    if not cfg.eps_grid:
        raise ValidationError("phase sweep needs a nonempty eps_grid")
    params = cfg.params
    p_g = thresholds(params).p_g
    total = params.num_jsets
    points: list[SweepPoint] = []
    for eps in cfg.eps_grid:
        p = (1.0 + eps) * p_g
        if not 0.0 <= p <= 1.0:
            raise ValidationError(f"p = (1 + {eps}) * p_g = {p} outside [0, 1]")
        rows: list[SweepTrial] = []
        for t in range(cfg.trials):
            seed = trial_seed(cfg.base_seed, t)
            summary = component_summary(sample_binomial(params, p, seed))
            rows.append(SweepTrial(t, seed, summary.largest, summary.second))
        fractions = [row.largest / total for row in rows]
        points.append(
            SweepPoint(
                eps=eps,
                p=p,
                trials=tuple(rows),
                largest_fraction=aggregate(fractions),
                predicted_fraction=predicted_giant_fraction(params, eps) if eps > 0 else None,
            )
        )
    return points


def run_hitting_time(cfg: ExperimentConfig) -> list[HittingRecord]:
    """Consume the edge process until j-connectivity, tracking both hitting
    times in a single pass (one union-find plus the touched flags)."""
    params = cfg.params
    records: list[HittingRecord] = []
    for t in range(cfg.trials):
        seed = trial_seed(cfg.base_seed, t)
        stream = process_stream(params, seed)
        uf = JSetUnionFind(params)
        t_i = 0
        step = 0
        for edge in stream:
            step += 1
            uf.apply_edge(edge)
            if t_i == 0 and uf.untouched_count == 0:
                t_i = step
            if uf.is_j_connected:
                break
        else:
            raise RuntimeError("process exhausted before j-connectivity; invalid state")
        records.append(HittingRecord(t, seed, step, t_i, step == t_i))
    return records


def run_degree_experiment(cfg: ExperimentConfig) -> DegreeRunResult:
    """Sample the binomial model in the degree-s regime and compare the
    empirical law of the degree-s count with its Poisson target."""
    params = cfg.params
    s = cfg.require("s")
    c = cfg.require("c")
    p = degree_regime_p(params, s, c)
    rows: list[DegreeTrial] = []
    for t in range(cfg.trials):
        seed = trial_seed(cfg.base_seed, t)
        profile = degree_profile(sample_binomial(params, p, seed))
        rows.append(DegreeTrial(t, seed, profile.count(s)))
    values = [row.count for row in rows]
    rate = poisson_limit_rate(params, s, c)
    counts = Counter(values)
    empirical = {v: counts[v] / len(values) for v in sorted(counts)}
    return DegreeRunResult(
        s=s,
        c=c,
        p=p,
        poisson_rate=rate,
        trials=tuple(rows),
        empirical_pmf=empirical,
        tv_distance=tv_to_poisson(values, rate),
        mean_count=statistics.fmean(values),
    )


def tv_to_poisson(values: list[int], rate: float) -> float:
    """Total-variation distance between an empirical integer law and Poisson."""
    if not values:
        raise ValidationError("tv_to_poisson needs at least one value")
    total = len(values)
    counts = Counter(values)
    hi = max(max(counts), math.ceil(rate + 12.0 * math.sqrt(rate) + 30.0))
    acc = 0.0
    cdf = 0.0
    for i in range(hi + 1):
        pmf = poisson_pmf(rate, i)
        cdf += pmf
        acc += abs(counts.get(i, 0) / total - pmf)
    acc += max(0.0, 1.0 - cdf)
    return 0.5 * acc


def run_connectivity_probe(cfg: ExperimentConfig) -> ConnectivityProbeResult:
    """Probability of j-connectivity / of isolated j-sets on both sides of
    the connectivity threshold: p = (j*ln n +- omega) / C(n, k-j).

    Above the threshold the hypergraph should be j-connected; below it,
    isolated j-sets should persist.
    """
    cfg.params.check_jsets()
    params = cfg.params
    omega = cfg.require("omega")
    if omega <= 0:
        raise ValidationError(f"omega must be positive, got {omega}")
    j, n = params.j, params.n
    base = j * math.log(n)
    scale = binomial(n, params.k - j)
    sides = []
    for label, shift in (("below", -omega), ("above", omega)):
        p = (base + shift) / scale
        if not 0.0 <= p <= 1.0:
            raise ValidationError(f"probe probability {p} (side {label}) outside [0, 1]")
        rows: list[ProbeTrial] = []
        for t in range(cfg.trials):
            seed = trial_seed(cfg.base_seed, t)
            summary = component_summary(sample_binomial(params, p, seed))
            rows.append(ProbeTrial(t, seed, summary.is_j_connected, summary.isolated_count > 0))
        sides.append(
            ProbeSide(
                label=label,
                p=p,
                trials=tuple(rows),
                fraction_connected=sum(r.connected for r in rows) / len(rows),
                fraction_isolated=sum(r.has_isolated for r in rows) / len(rows),
            )
        )
    return ConnectivityProbeResult(below=sides[0], above=sides[1])


def run_smoothness_probe(cfg: ExperimentConfig) -> list[SmoothnessTrial]:
    """Score how evenly the largest component covers ell-sets, at
    p = (1 + gamma) * p_g, for every ell in the config's ell_list."""
    cfg.params.check_jsets()
    params = cfg.params
    gamma = cfg.require("gamma")
    if gamma <= 0:
        raise ValidationError(f"gamma must be positive, got {gamma}")
    if not cfg.ell_list:
        raise ValidationError("smoothness probe needs a nonempty ell_list")
    p = (1.0 + gamma) * thresholds(params).p_g
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p = (1 + {gamma}) * p_g = {p} outside [0, 1]")
    out: list[SmoothnessTrial] = []
    for t in range(cfg.trials):
        seed = trial_seed(cfg.base_seed, t)
        members = largest_component_jsets(sample_binomial(params, p, seed))
        if not members:
            out.append(SmoothnessTrial(t, seed, True, 0, {}))
            continue
        reports = {
            ell: smoothness_score(members, ell, params, cfg.sample_cap, seed=seed)
            for ell in cfg.ell_list
        }
        out.append(SmoothnessTrial(t, seed, False, len(members), reports))
    return out
