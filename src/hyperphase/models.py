"""Seeded random hypergraph models.

Three samplers share one RNG contract:

* binomial model: every k-set is an edge independently with probability p;
* uniform model: exactly M distinct edges, uniform over all M-subsets;
* process stream: lazy edge-by-edge sequence whose length-M prefix is
  distributed like the uniform model with M edges.

RNG: CPython's ``random.Random`` (MT19937).  For a fixed seed its word
stream is the same on every platform, so every sampler is bit-for-bit
reproducible from (params, p or M, seed).  Per-trial streams are split
from a base seed as ``trial_seed(base, index) = base + index``; MT19937's
seed scrambling makes nearby integer seeds independent streams.

Distinct edges are drawn by unranking: uniform ranks in [0, C(n, k)) from
``rng.randrange``, each kept unless already drawn, are unranked to k-sets.
When M > C(n, k)/2 the complement is drawn instead, so rejection stays
cheap.  Only ``EdgeStream``, the scalar reference for the process, calls
``randrange`` per rank: ``first_distinct_ranks`` replays its word use on
one bulk ``getrandbits`` draw and leaves the generator in the state the
calls would have, so its first M ranks are the stream's first M.  That
replay is exact as long as ``randrange`` keeps its word use (true of
CPython 3.11, and pinned by the tests on the running interpreter).

The binomial edge count M is drawn by CDF inversion carried out in log
space (plain-space inversion underflows once the mean passes ~700); for
populations beyond 2^53 or means beyond 10^7 a normal approximation with
continuity correction stands in.  The scalar loop ``_scalar_inversion``
defines the count; ``_inversion_crossing`` replays it with numpy and
accepts its answer only when every comparison clears a stated bound on the
drift between ``np.log`` and ``math.log``; the scalar loop decides the
rest.  The bound grows with the mean, so the fallback is rare below means
of ~10^4 and common near 10^6.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
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
_MAX_INVERSION_BLOCK = 2**16
_EPS = 2.0**-52


def trial_seed(base_seed: int, trial_index: int) -> int:
    """Seed-stream split: one independent generator per trial."""
    return base_seed + trial_index


class _EdgeTuples:
    """``Hypergraph.edges``: the constructor's argument is handed to
    ``__post_init__``; a read returns the rows of ``array`` as a tuple of
    edge tuples, built on first read and kept."""

    def __get__(self, h, owner=None):
        if h is None:
            return ()  # the field's default
        edges = h.__dict__.get("_edge_tuples")
        if edges is None:
            edges = h.__dict__["_edge_tuples"] = tuple(zip(*h.array.T.tolist()))
        return edges

    def __set__(self, h, edges) -> None:
        h.__dict__["_edges_in"] = edges


@dataclass(frozen=True)
class Hypergraph:
    """A k-uniform hypergraph on [n] with canonical, duplicate-free edges.

    Edges are stored sorted by colex rank, so equal hypergraphs compare
    equal regardless of construction order.  ``array`` holds them as a
    read-only (m, k) int64 array; ``edges`` is the same rows as tuples,
    built on first read.  Either form may be passed in.
    """

    params: Params
    edges: tuple[Edge, ...] = _EdgeTuples()
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        k, n = self.params.k, self.params.n
        edges = self.__dict__.pop("_edges_in")
        arr = canonical_array(edges, k, n)
        if arr is None:  # per-edge checks name the fault
            edges = edges.tolist() if isinstance(edges, np.ndarray) else edges
            rows = [validate_subset(e, k, n, "edge") for e in edges]
            arr = np.array(rows, dtype=np.int64).reshape(-1, k)
        # colex order compares vertices only, so it is exact for any k; the
        # narrowest dtype holding [1, n] sorts fastest
        arr = arr[np.lexsort(arr.T.astype(np.min_scalar_type(n)))]
        dup = np.flatnonzero((arr[1:] == arr[:-1]).all(axis=1))
        if len(dup):
            raise ValidationError(f"duplicate edge {tuple(arr[dup[0]].tolist())}")
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @property
    def m(self) -> int:
        return len(self.array)

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


def _draw_distinct_ranks(rng: random.Random, total: int, count: int) -> np.ndarray:
    """`count` distinct uniform ranks in [0, total) as int64, in draw order.

    For count > total/2 the complement is drawn and inverted (the
    complement of a uniform subset is uniform), returned ascending.
    """
    if count > total // 2:
        keep = np.ones(total, dtype=bool)
        keep[first_distinct_ranks(rng, total, total - count)] = False
        return np.flatnonzero(keep)
    return first_distinct_ranks(rng, total, count)


def first_distinct_ranks(rng: random.Random, total: int, count: int) -> np.ndarray:
    """The first `count` distinct values of repeated ``rng.randrange(total)``,
    in draw order, as int64; `rng` is left as those calls would leave it.

    ``randrange(total)`` draws b = total.bit_length() bits and rejects
    values >= total.  For b <= 32 the bits are one 32-bit MT19937 word
    shifted right by 32 - b; for 33 <= b <= 63 they are two words, the low
    one first and the high one shifted right by 64 - b.  ``getrandbits(32 *
    W)`` returns the next W words little-endian, so a batch of draws is one
    call mapped with numpy.  The generator is then rewound with ``setstate``
    and advanced by exactly the words up to the last kept draw.  `total`
    must fit in int64, as every binomial coefficient here does.  A batch
    is at most 2 * count + 64 draws, so no array held here has more than
    3 * count + 64 int64-sized entries.
    """
    values = np.empty(0, dtype=np.int64)
    if count <= 0:
        return values
    bits = total.bit_length()
    state = rng.getstate()
    drawn = last = 0  # draws made; index of the draw behind values[-1]
    while len(values) < count:
        free = total - len(values)
        need = count - len(values)
        # expected draws for `need` new values: 2^b / total per in-range
        # draw, times total * ln(free / (free - need)) in-range draws
        expected = (1 << bits) * -math.log1p(-need / free) if need < free else math.inf
        batch = int(min(1.05 * expected + 32, 2 * count + 64))
        cand = _rank_candidates(rng, bits, batch)
        hit = np.flatnonzero(cand < total)
        pool = np.concatenate((values, cand[hit]))  # kept values, then this batch's
        first = np.sort(np.unique(pool, return_index=True)[1])[:count]
        if len(first) > len(values):  # the batch added values
            last = drawn + int(hit[first[-1] - len(values)])
        values = pool[first]
        drawn += batch
    rng.setstate(state)
    rng.getrandbits((32 if bits <= 32 else 64) * (last + 1))
    return values


def _rank_candidates(rng: random.Random, bits: int, draws: int) -> np.ndarray:
    """The next `draws` values of ``rng.getrandbits(bits)``, 1 <= bits <= 63,
    as int64, from one bulk draw of 32-bit words."""
    words = 1 if bits <= 32 else 2
    w = np.frombuffer(rng.getrandbits(32 * words * draws).to_bytes(4 * words * draws, "little"), "<u4")
    if words == 1:
        return (w >> (32 - bits)).astype(np.int64)
    return w[0::2].astype(np.int64) | (w[1::2] >> (64 - bits)).astype(np.int64) << 32


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
    m = _inversion_crossing(log_u, n_trials, p)
    return _scalar_inversion(log_u, n_trials, p) if m is None else m


def _scalar_inversion(log_u: float, n_trials: int, p: float) -> int:
    """The smallest m with log_u <= log CDF(m), one step at a time; stops
    early once m passes the mean and log pmf(m) < -745 (tail mass below
    float resolution).  This loop defines the count."""
    mean = n_trials * p
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


def _inversion_crossing(log_u: float, n_trials: int, p: float) -> int | None:
    """``_scalar_inversion``'s count, computed with numpy, or None when
    float drift could change the answer.

    Blocks of at most min(mean + 10 sd, 2^16) + 1 steps replay the loop's
    recurrence: ``np.add.accumulate`` and ``np.logaddexp.accumulate`` add in
    the loop's order, but ``np.log`` may differ from ``math.log`` in the
    last bits.  Allowing each within 4 ulp of the true log, one step drifts
    log pmf and log CDF by at most eps * S, with eps = 2^-52 and S = 2 |log
    odds| + 12 log(n + 1) + 2 max|log pmf| + 7 covering the two logs, the
    roundings and ``logaddexp`` (1-Lipschitz); after m steps the drift is
    at most m * eps * S.  The first step whose exit test might pass within
    twice that bound must pass outside it, or the answer is None.
    """
    mean = n_trials * p
    log_odds = math.log(p) - math.log1p(-p)
    log_pmf = n_trials * math.log1p(-p)
    log_cdf = log_pmf
    if log_u <= log_cdf:  # step 0 carries no drift
        return 0
    block = min(math.ceil(mean + 10.0 * math.sqrt(mean * (1.0 - p))), _MAX_INVERSION_BLOCK) + 1
    scale = 2.0 * abs(log_odds) + 12.0 * math.log(n_trials + 1) + 7.0
    top = abs(log_pmf)
    start = 0
    while True:
        stop = min(start + block, n_trials)
        m = np.arange(start, stop, dtype=np.float64)  # the steps m -> m + 1
        steps = log_odds + np.log(n_trials - m) - np.log(m + 1.0)
        log_pmfs = np.add.accumulate(np.concatenate(([log_pmf], steps)))[1:]
        log_cdfs = np.logaddexp.accumulate(np.concatenate(([log_cdf], log_pmfs)))[1:]
        top = max(top, float(np.abs(log_pmfs).max()))
        drift = 2.0 * _EPS * stop * (scale + 2.0 * top)
        counts = m + 1.0
        at_end = counts >= n_trials
        tail = counts > mean
        maybe = (log_u <= log_cdfs + drift) | at_end | (tail & (log_pmfs < -745.0 + drift))
        hits = np.flatnonzero(maybe)
        if len(hits):
            c = hits[0]
            sure = log_u <= log_cdfs[c] - drift or at_end[c] or (tail[c] and log_pmfs[c] < -745.0 - drift)
            return start + 1 + int(c) if sure else None
        log_pmf, log_cdf = float(log_pmfs[-1]), float(log_cdfs[-1])
        start = stop


def _logaddexp(a: float, b: float) -> float:
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))
