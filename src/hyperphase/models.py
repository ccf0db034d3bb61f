"""Seeded random hypergraph models.

Three samplers share one RNG contract:

* binomial model: every k-set is an edge independently with probability p;
* uniform model: exactly M distinct edges, uniform over all M-subsets;
* process stream: lazy edge-by-edge sequence whose length-M prefix is
  distributed like the uniform model with M edges.

RNG: CPython's ``random.Random`` (MT19937).  Its output for a fixed seed is
stable across platforms and interpreter versions, so every sampler is
bit-for-bit reproducible from (params, p or M, seed).  Per-trial streams
are split from a base seed as ``trial_seed(base, index) = base + index``;
MT19937's seed scrambling makes nearby integer seeds independent streams.

Distinct edges are drawn by unranking: a uniform integer in [0, C(n, k))
is unranked to a k-set, rejecting collisions against the set of ranks
already drawn.  When M > C(n, k)/2 the complement is drawn instead, so
rejection stays cheap.  The binomial edge count M is drawn by CDF
inversion carried out in log space (plain-space inversion underflows once
the mean passes ~700); for populations beyond 2^53 or means beyond 10^7 a
normal approximation with continuity correction stands in.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import islice
from statistics import NormalDist
from typing import Iterator

import numpy as np

from .combinatorics import Edge, canonical_array, check_cap, colex_unrank, colex_unrank_array
from .combinatorics import validate_subset
from .errors import ValidationError
from .params import Params

_NORMAL = NormalDist()
_BIG_POPULATION = 2**53
_MAX_INVERSION_MEAN = 1e7


def trial_seed(base_seed: int, trial_index: int) -> int:
    """Seed-stream split: one independent generator per trial."""
    return base_seed + trial_index


@dataclass(frozen=True)
class Hypergraph:
    """A k-uniform hypergraph on [n] with canonical, duplicate-free edges.

    Edges are stored sorted by colex rank, so equal hypergraphs compare
    equal regardless of construction order.  ``array`` holds the same rows
    as a read-only (m, k) int64 array; either form may be passed in.
    """

    params: Params
    edges: tuple[Edge, ...] = ()
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        k, n = self.params.k, self.params.n
        arr = canonical_array(self.edges, k, n)
        if arr is None:  # per-edge checks name the fault
            edges = self.edges.tolist() if isinstance(self.edges, np.ndarray) else self.edges
            arr = np.array([validate_subset(e, k, n, "edge") for e in edges]).reshape(-1, k)
            if arr.size and arr.dtype.kind not in "iu":
                raise ValidationError(f"edge vertices must be integers, got {arr.dtype} values")
            arr = arr.astype(np.int64)
        # colex order compares vertices only, so it is exact for any k; the
        # narrowest dtype holding [1, n] sorts fastest
        arr = arr[np.lexsort(arr.T.astype(np.min_scalar_type(n)))]
        dup = np.flatnonzero((arr[1:] == arr[:-1]).all(axis=1))
        if len(dup):
            raise ValidationError(f"duplicate edge {tuple(arr[dup[0]].tolist())}")
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)
        object.__setattr__(self, "edges", tuple(zip(*arr.T.tolist())))

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)


class EdgeStream:
    """Lazy uniform random edge sequence without repetition.

    Single-consumer iterator.  Exhausts (StopIteration) after C(n, k)
    yields; ``position`` counts edges yielded so far.  Only the set of
    already-drawn edge ranks is materialized, never the full enumeration.
    """

    def __init__(self, params: Params, seed: int):
        self.params = params
        self.seed = seed
        self.position = 0
        self._total = params.num_ksets
        self._ranks = _distinct_ranks(random.Random(seed), self._total)

    def __iter__(self) -> "EdgeStream":
        return self

    def __next__(self) -> Edge:
        if self.position >= self._total:
            raise StopIteration
        r = next(self._ranks)
        self.position += 1
        return colex_unrank(r, self.params.k, self.params.n)


def process_stream(params: Params, seed: int) -> EdgeStream:
    """The random hypergraph process: one uniformly chosen new edge per step."""
    return EdgeStream(params, seed)


def sample_uniform(params: Params, M: int, seed: int) -> Hypergraph:
    """Exactly M distinct edges, uniform over all M-subsets of k-sets."""
    total = params.num_ksets
    if not 0 <= M <= total:
        raise ValidationError(f"edge count M={M} outside [0, {total}]")
    check_cap("edge count m", M)
    rng = random.Random(seed)
    ranks = _draw_distinct_ranks(rng, total, M)
    return Hypergraph(params, colex_unrank_array(ranks, params.k, params.n))


def sample_binomial(params: Params, p: float, seed: int) -> Hypergraph:
    """Every k-set an edge independently with probability p."""
    _validate_probability(p, "p")
    total = params.num_ksets
    rng = random.Random(seed)
    m = _draw_binomial_count(rng, total, p)
    check_cap("edge count m", m)
    ranks = _draw_distinct_ranks(rng, total, m)
    return Hypergraph(params, colex_unrank_array(ranks, params.k, params.n))


def second_round_probability(p: float, p0: float) -> float:
    """Top-up probability p* such that the union of independent draws at
    p0 and p* has every edge present with probability p."""
    _validate_probability(p, "p")
    _validate_probability(p0, "p0")
    if p0 > p:
        raise ValidationError(f"first-round p0={p0} must not exceed p={p}")
    if p0 >= 1.0:
        raise ValidationError("first-round p0 must be < 1")
    return (p - p0) / (1.0 - p0)


def _validate_probability(p: float, name: str) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"{name}={p} outside [0, 1]")


def _draw_distinct_ranks(rng: random.Random, total: int, count: int) -> list[int]:
    """`count` distinct uniform ranks in [0, total), in draw order.

    Rejection against a hash set; for count > total/2 the complement is
    drawn and inverted (the complement of a uniform subset is uniform).
    """
    if count > total // 2:
        excluded = set(_draw_distinct_ranks(rng, total, total - count))
        return [r for r in range(total) if r not in excluded]
    return list(islice(_distinct_ranks(rng, total), count))


def _distinct_ranks(rng: random.Random, total: int) -> Iterator[int]:
    """Uniform ranks in [0, total) without repetition, in draw order, by
    rejection against the set of ranks drawn so far.  Draws only when the
    next rank is asked for; the caller stops after at most `total`."""
    drawn: set[int] = set()
    while True:
        r = rng.randrange(total)
        if r not in drawn:
            drawn.add(r)
            yield r


def _draw_binomial_count(rng: random.Random, n_trials: int, p: float) -> int:
    """One Binomial(n_trials, p) draw by log-space CDF inversion."""
    if p <= 0.0:
        return 0
    if p >= 1.0:
        return n_trials
    if p > 0.5:
        return n_trials - _draw_binomial_count(rng, n_trials, 1.0 - p)
    mean = n_trials * p
    if n_trials > _BIG_POPULATION or mean > _MAX_INVERSION_MEAN:
        # normal approximation with continuity correction; uniform kept
        # strictly inside (0, 1) so inv_cdf stays finite
        u = (rng.getrandbits(53) + 0.5) * 2.0**-53
        x = mean + math.sqrt(mean * (1.0 - p)) * _NORMAL.inv_cdf(u)
        return min(max(int(math.floor(x + 0.5)), 0), n_trials)
    u = rng.random()
    if u <= 0.0:
        return 0
    log_u = math.log(u)
    log_odds = math.log(p) - math.log1p(-p)
    log_pmf = n_trials * math.log1p(-p)
    log_cdf = log_pmf
    m = 0
    while log_u > log_cdf:
        if m >= n_trials or (log_pmf < -745.0 and m > mean):
            break  # tail mass below float resolution
        log_pmf += log_odds + math.log(n_trials - m) - math.log(m + 1)
        m += 1
        log_cdf = _logaddexp(log_cdf, log_pmf)
    return m


def _logaddexp(a: float, b: float) -> float:
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))
