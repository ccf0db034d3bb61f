"""Seeded Monte Carlo experiment drivers.

Every runner is a pure function of its ExperimentConfig: trial t draws on
``trial_seed(base_seed, t)``, the seed is recorded in the trial's row, and
a re-run reproduces every record bit for bit.  The runners hand ``models``
seeds and counts and get rank arrays back.  Trials are independent;
``hitting`` and ``degrees`` draw batches of them in ``models`` and reduce
them over shared arrays (``_batch_jset_ranks``: one gather from a cached
edge-to-j-set table at small C(n, k), else one unrank and one j-rank pass,
trial b's j-sets offset by b * C(n, j)), and their records equal one-trial
runs.  ``sweep``, ``connprobe`` and ``smooth`` share one driver
(``_static_censuses``): a trial's points, all on its seed, merge the new
ranks ``models`` hands each count into one union-find per chain.
"""

from __future__ import annotations

import functools
import math
import statistics
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .analysis import (
    RegimeParams,
    SmoothnessReport,
    degree_profile,  # unused: bench/tracing.py binds it until ROADMAP item 1 retargets the tracer
    degree_regime_p,
    poisson_limit_rate,
    poisson_pmf,
    predicted_giant_fraction,
    smoothness_score,
    thresholds,
)
from .combinatorics import INT64_MAX, binomial, check_cap, colex_unrank_array, jset_rank_array, max_jsets_cap
from .components import JSetUnionFind, block_rows, merge_ranks
from .components import component_summary  # unused: bench/tracing.py binds it (ROADMAP item 1)
from .components import largest_component_jsets  # unused: bench/tracing.py binds it (ROADMAP item 1)
from .errors import ValidationError
from .models import _binomial_batches, _binomial_chains, _binomial_count, _process_batch, trial_seed
from .models import sample_binomial  # unused: bench/tracing.py binds it (ROADMAP item 1)
from .params import Params

_TABLE_RANKS = 2**14  # largest edge-to-j-set table; C(n, j) <= its C(n, k) * C(k, j) entries fit int16

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
        if self.base_seed < 0:  # the generator seeds with |seed|, so -s would replay s's draws
            raise ValidationError(f"seed must be >= 0, got {self.base_seed}")
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
    """Mean and sample standard deviation (n-1)."""

    mean: float
    stddev: float


def aggregate(values: list[float] | tuple[float, ...]) -> Stats:
    """Mean and standard deviation; stddev of a single value is 0."""
    if not values:
        raise ValidationError("aggregate needs at least one value")
    vals = [float(v) for v in values]
    return Stats(mean=statistics.fmean(vals), stddev=statistics.stdev(vals) if len(vals) > 1 else 0.0)


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
    """Smoothness of the largest component in one draw.  An l1_size of 0
    means the draw had no edges at all (a pathological subcritical sample),
    and then there are no reports."""

    trial: int
    seed: int
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
    ps = [(1.0 + eps) * p_g for eps in cfg.eps_grid]
    faults = [f"p = (1 + {eps}) * p_g = {p} outside [0, 1]" for eps, p in zip(cfg.eps_grid, ps)]
    points: list[SweepPoint] = []
    for eps, p, rows in zip(cfg.eps_grid, ps, _static_censuses(cfg, ps, faults, lambda uf, seed: uf.summary())):
        trials = tuple(SweepTrial(t, seed, c.largest, c.second) for t, seed, c in rows)
        predicted = predicted_giant_fraction(params, eps) if eps > 0 else None
        points.append(SweepPoint(eps, p, trials, aggregate([row.largest / total for row in trials]), predicted))
    return points


def _static_censuses(cfg: ExperimentConfig, ps: list[float], faults: list[str], read) -> list[list[tuple]]:
    """Each point's (trial, seed, read(union-find, seed)) rows, the union-find
    holding ``sample_binomial(params, p, seed)``'s edges: the one static
    driver, one trial at a time.  Point by point, p (raising its fault) and
    each trial's edge count are drawn and checked first, as one sample per
    (point, trial) would; then each trial draws its ranks once."""
    counts = []
    for p, fault in zip(ps, faults):
        if not 0.0 <= p <= 1.0:
            raise ValidationError(fault)
        counts.append([_binomial_count(cfg.params, p, trial_seed(cfg.base_seed, t))[0] for t in range(cfg.trials)])
    rows: list[list[tuple]] = [[] for _ in ps]
    for t, trial in enumerate(zip(*counts)):
        seed = trial_seed(cfg.base_seed, t)
        for i, uf in _static_union_finds(cfg.params, trial, seed):
            rows[i].append((t, seed, read(uf, seed)))
    return rows


def _static_union_finds(params: Params, counts, seed: int):
    """(i, a union-find holding exactly the sample of edge count counts[i]
    on `seed`) for every count in increasing order, grown for the next: one
    union-find per ``_binomial_chains`` chain, merging each count's new
    ranks, sorted (they unrank faster), in blocks of ``block_rows`` rows."""
    rows = block_rows(params.jsets_per_edge)
    for i, fresh, new in _binomial_chains(params.num_ksets, counts, seed):
        uf = JSetUnionFind(params) if fresh else uf
        for b in range(0, len(new), rows):
            edges = colex_unrank_array(np.sort(new[b:b + rows]), params.k, params.n)
            uf.apply_ranks(jset_rank_array(edges, params.j, params.n))
        yield i, uf


def run_hitting_time(cfg: ExperimentConfig) -> list[HittingRecord]:
    """Both hitting times of the edge process, from one prefix of it per
    trial drawn as arrays: ``_process_batch`` gives each trial's ranks in
    order, the ones ``process_stream`` reads one edge at a time.  The prefix
    starts at C(n, k) * (ln C(n, j) + 3) / C(n - j, k - j) edges, where e^-3
    j-sets are expected to be isolated.
    ``_hitting_times`` takes consecutive trials in batches of ``block_rows``
    trials, one trial's rank array a row; a trial whose prefix ends before
    T_c goes into the next pass, twice as long.
    Ranks drawn past T_c are discarded, which keeps the RNG contract: no
    other trial reads that generator."""
    params = cfg.params
    params.check_jsets()
    total = params.num_ksets
    per_jset = binomial(params.n - params.j, params.k - params.j)  # edges through one j-set
    count = min(math.ceil(total * (math.log(params.num_jsets) + 3.0) / per_jset), total)
    times: dict[int, tuple[int, int]] = {}
    pending = list(range(cfg.trials))
    while pending:
        per_batch = block_rows(count * params.jsets_per_edge)
        for b in range(0, len(pending), per_batch):
            batch = pending[b:b + per_batch]
            seeds = [trial_seed(cfg.base_seed, t) for t in batch]
            times.update((t, pair) for t, pair in zip(batch, _hitting_times(params, seeds, count)) if pair)
        pending = [t for t in pending if t not in times]
        count = min(2 * count, total)
    return [HittingRecord(t, trial_seed(cfg.base_seed, t), *times[t]) for t in range(cfg.trials)]


def _hitting_times(params: Params, seeds: list[int], count: int) -> list[tuple[int, int] | None]:
    """(T_c, T_i) from the first `count` edges of the process on each seed,
    or None where they are not j-connected.  The prefixes are j-ranked in
    one ``_batch_jset_ranks`` call (a table gather at small C(n, k)), so
    one first touch and one label array serve the batch.  T_i is one past
    a trial's last first touch of a j-set; an isolated j-set keeps the
    first T_i - 1 edges split, so one ``merge_ranks`` call takes each
    trial's first T_i rows (j-connected there w.h.p., by the hitting-time
    theorem), and each later call one more row of every trial still split.
    The labels (B * C(n, j)) and ranks (B * count * C(k, j)) never pass the
    larger of one trial's arrays and ``components._BATCH_RANKS``."""
    check_cap("edge count m", count)
    batch, size = len(seeds), params.num_jsets
    base = np.arange(0, batch * size, size)  # trial b's j-set r is b * C(n, j) + r
    ranks = _batch_jset_ranks(params, _process_batch(params, seeds, count))
    first = np.full(batch * size, count)
    np.minimum.at(first, ranks.ravel(), np.tile(np.arange(count), ranks.size // count))
    t_i = first.reshape(batch, size).max(axis=1) + 1
    del first  # freed before the labels are built
    ends = np.where(t_i <= count, t_i, 0)  # a trial with an untouched j-set merges nothing
    labels = merge_ranks(np.arange(batch * size), ranks[:, (np.arange(count) < ends[:, None]).ravel()].T)
    t_c, live = ends.copy(), np.flatnonzero(ends)
    while True:
        live = live[labels.reshape(batch, size)[live].max(axis=1) != base[live]]  # still split
        live = live[t_c[live] < count]
        if not len(live):
            break
        labels = merge_ranks(labels, ranks[:, live * count + t_c[live]].T)
        t_c[live] += 1
    connected = labels.reshape(batch, size).max(axis=1) == base  # one label, the block's smallest
    return [(int(c), int(i)) if ok else None for c, i, ok in zip(t_c, t_i, connected)]


def _batch_jset_ranks(params: Params, trials: list[np.ndarray]) -> np.ndarray:
    """The j-set ranks of a batch of trials' edges, given as colex rank
    arrays: one column gather from ``_jset_table`` when its C(n, k) * C(k, j)
    entries fit min(``_TABLE_RANKS``, cap), else one unrank and one j-rank
    pass.  Trial b's j-set r is shifted to b * C(n, j) + r, and row i of the
    C-contiguous (C(k, j), total edges) result holds every edge's i-th one."""
    drawn = np.concatenate(trials)
    if params.num_ksets * params.jsets_per_edge <= min(_TABLE_RANKS, max_jsets_cap()):
        ranks = _jset_table(params.k, params.j, params.n).take(drawn, axis=1).astype(np.int64)
    else:
        ranks = jset_rank_array(colex_unrank_array(drawn, params.k, params.n), params.j, params.n).T
    ranks += np.repeat(np.arange(len(trials)) * params.num_jsets, [len(r) for r in trials])
    return ranks


@functools.lru_cache(maxsize=2)
def _jset_table(k: int, j: int, n: int) -> np.ndarray:
    """Read-only (C(k, j), C(n, k)) int16 array: column r is edge r's j-set ranks."""
    table = jset_rank_array(colex_unrank_array(np.arange(binomial(n, k)), k, n), j, n).T.astype(np.int16)
    table.flags.writeable = False
    return table


def run_degree_experiment(cfg: ExperimentConfig) -> DegreeRunResult:
    """Sample the binomial model in the degree-s regime and compare the
    empirical law of the degree-s count with its Poisson target.  The trial
    seeds go to ``models`` lazily, which draws consecutive trials' ranks
    together (``_binomial_batches``); each batch is counted together, from
    its touched j-sets only (``_degree_counts``).  A batch's j-set ranks fit
    a block (``block_rows(1)`` of them) and its B * C(n, j) fits int64 (one
    trial at least), so a run holds one batch's arrays and one count per
    trial."""
    params, s, c = cfg.params, cfg.require("s"), cfg.require("c")
    p = degree_regime_p(params, s, c)
    seeds = (trial_seed(cfg.base_seed, t) for t in range(cfg.trials))
    edges, trials = block_rows(1) // params.jsets_per_edge, INT64_MAX // params.num_jsets
    values: list[int] = []
    for ranks in _binomial_batches(params, p, seeds, edges, trials):
        values += _degree_counts(params, ranks, s)
    rows = tuple(DegreeTrial(t, trial_seed(cfg.base_seed, t), v) for t, v in enumerate(values))
    rate = poisson_limit_rate(params, s, c)
    return DegreeRunResult(s, c, p, rate, rows, tv_to_poisson(values, rate), statistics.fmean(values))


def _degree_counts(params: Params, batch: list[np.ndarray], s: int) -> list[int]:
    """D_s of each trial in a batch of edge-rank arrays, from the touched
    j-sets only, as ``degree_profile`` counts: D_0 is C(n, j) less a trial's
    touched count, and no array of C(n, j) entries is built."""
    touched, degree = np.unique(_batch_jset_ranks(params, batch), return_counts=True)
    trial = touched // params.num_jsets
    if s == 0:
        return (params.num_jsets - np.bincount(trial, minlength=len(batch))).tolist()
    return np.bincount(trial[degree == s], minlength=len(batch)).tolist()


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
    labels, ps = ("below", "above"), [(base - omega) / scale, (base + omega) / scale]
    faults = [f"probe probability {p} (side {label}) outside [0, 1]" for label, p in zip(labels, ps)]
    sides = []
    for label, p, rows in zip(labels, ps, _static_censuses(cfg, ps, faults, lambda uf, seed: uf.summary())):
        trials = tuple(ProbeTrial(t, seed, c.is_j_connected, c.isolated_count > 0) for t, seed, c in rows)
        connected, isolated = sum(r.connected for r in trials), sum(r.has_isolated for r in trials)
        sides.append(ProbeSide(label, p, trials, connected / len(trials), isolated / len(trials)))
    return ConnectivityProbeResult(*sides)


def run_smoothness_probe(cfg: ExperimentConfig) -> list[SmoothnessTrial]:
    """Score how evenly the largest component covers ell-sets, at
    p = (1 + gamma) * p_g, for every ell in the config's ell_list.  Every
    ell and its scored ell-set count are checked before the first draw, and
    every edge count before the first census, by the static driver."""
    cfg.params.check_jsets()
    params = cfg.params
    gamma = cfg.require("gamma")
    if gamma <= 0:
        raise ValidationError(f"gamma must be positive, got {gamma}")
    if not cfg.ell_list:
        raise ValidationError("smoothness probe needs a nonempty ell_list")
    for ell in cfg.ell_list:  # smoothness_score's checks, made before the first draw
        if not 0 <= ell < params.j:
            raise ValidationError(f"ell must satisfy 0 <= ell < j, got ell={ell}, j={params.j}")
        check_cap("ell-sets scored", min(binomial(params.n, ell), cfg.sample_cap))
    p = (1.0 + gamma) * thresholds(params).p_g

    def score(uf: JSetUnionFind, seed: int) -> tuple[int, dict[int, SmoothnessReport]]:
        members = colex_unrank_array(uf.largest_component_ranks(), params.j, params.n)
        if not len(members):  # no edges: nothing to score
            return 0, {}
        return len(members), {ell: smoothness_score(members, ell, params, cfg.sample_cap, seed=seed)
                              for ell in cfg.ell_list}

    (rows,) = _static_censuses(cfg, [p], [f"p = (1 + {gamma}) * p_g = {p} outside [0, 1]"], score)
    return [SmoothnessTrial(t, seed, size, reports) for t, seed, (size, reports) in rows]
