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

This module alone holds the generators, their words and the complements:
``experiments`` and ``analysis`` hand it seeds and counts and get rank
arrays back.  Distinct edges are drawn by unranking: uniform ranks in
[0, C(n, k)) from repeated ``rng.randrange``, each kept unless already
drawn, are sorted and unranked to k-sets (``Hypergraph.from_ranks``).  When
M > C(n, k)/2 the complement is drawn instead, so rejection stays cheap.
``first_distinct_ranks`` replays that loop's values on bulk ``getrandbits``
draws and keeps each value's first draw with one sort of packed value/index
keys.  It reads words past the last kept draw, so it is the generator's last
use; its two callers seed a fresh one and drop it after.  ``_first_ranks``
is every one-trial draw on a seed: the process (``EdgeStream``) and
uniform samples.  ``_binomial_chains`` is every binomial sample: its
count (``_binomial_count``) reads two words at any p in (0, 1), so one
draw past them serves every p on a seed, and only the
chains know which ranks make each count's sample.  Many small trials
draw together (``_process_batch`` for ``hitting``, ``_binomial_batches``
for ``degrees``): each trial's generator reads the words of the replay's
first round and is dropped, and one sort of packed trial/value/index keys
finds every trial's ranks; a trial whose first round holds too few values
(under 0.2% at the benchmark's sizes) is redrawn alone.  The replay is
exact as long as ``randrange`` keeps its word use (CPython 3.11, pinned by
the tests on the running interpreter against the loop).

The binomial edge count M is drawn by CDF inversion carried out in log
space (plain-space inversion underflows once the mean passes ~700), at any
C(n, k); for means beyond 10^7 a normal approximation with continuity
correction stands in.  The scalar loop ``_scalar_inversion``
defines the count; ``_inversion_crossing`` replays it with numpy and
accepts its answer only when every comparison clears a stated bound on the
drift between ``np.log`` and ``math.log``; the scalar loop decides the
rest.  The bound grows with the mean, so the fallback is rare below means
of ~10^4 and common near 10^6.  The replay's blocks do not depend on the
draw and are cached, so a trial's count is one ``searchsorted``.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .combinatorics import Edge, canonical_array, check_cap, colex_unrank, colex_unrank_array
from .combinatorics import validate_subset
from .errors import ValidationError
from .params import Params

_NORMAL = NormalDist()
_MAX_INVERSION_MEAN = 1e7
_MAX_INVERSION_BLOCK = 2**16
_EPS = 2.0**-52
_MIN_LOG_U = math.log(2.0**-53)  # random() returns multiples of 2^-53


def trial_seed(base_seed: int, trial_index: int) -> int:
    """Seed-stream split: one independent generator per trial."""
    return base_seed + trial_index


@dataclass(frozen=True)
class Hypergraph:
    """A k-uniform hypergraph on [n] with canonical, duplicate-free edges.

    Edges are stored sorted by colex rank, so equal hypergraphs compare
    equal regardless of construction order.  ``array`` holds them as a
    read-only (m, k) int64 array, ``edges`` as tuples; either form may be
    passed in, or the edges' colex ranks to ``from_ranks``.
    """

    params: Params
    edges: tuple[Edge, ...] = ()
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        k, n = self.params.k, self.params.n
        arr = canonical_array(self.edges, k, n)
        if arr is None:  # per-edge checks name the fault
            edges = self.edges.tolist() if isinstance(self.edges, np.ndarray) else self.edges
            rows = [validate_subset(e, k, n, "edge") for e in edges]
            arr = np.array(rows, dtype=np.int64).reshape(-1, k)
        arr = arr[np.lexsort(arr.T)]  # colex order compares vertices only, so it is exact for any k
        dup = np.flatnonzero((arr[1:] == arr[:-1]).all(axis=1))
        if len(dup):
            raise ValidationError(f"duplicate edge {tuple(arr[dup[0]].tolist())}")
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)
        object.__setattr__(self, "edges", tuple(zip(*arr.T.tolist())))

    @classmethod
    def from_ranks(cls, params: Params, ranks: np.ndarray) -> Hypergraph:
        """The hypergraph whose edges have these colex ranks, strictly
        increasing in [0, C(n, k))."""
        r = np.asarray(ranks)
        if r.ndim != 1 or (r.size and r.dtype.kind != "i"):
            raise ValidationError(f"edge ranks must be 1-d signed integers, got {r.dtype}{r.shape}")
        check_cap("edge count m", len(r))
        if (len(r) and (r.min() < 0 or r.max() >= params.num_ksets)) or not (np.diff(r) > 0).all():
            raise ValidationError(f"edge ranks must be strictly increasing in [0, {params.num_ksets})")
        return cls(params, colex_unrank_array(r, params.k, params.n))

    @property
    def m(self) -> int:
        return len(self.array)

    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)


class EdgeStream:
    """Lazy uniform random edge sequence without repetition.

    Single-consumer iterator.  Exhausts (StopIteration) after C(n, k)
    yields; ``position`` counts edges yielded so far.  Edges are read off a
    held ``first_distinct_ranks`` prefix, redrawn twice as long when used
    up (a longer draw extends a shorter one): O(1) amortized draws per edge.
    """

    def __init__(self, params: Params, seed: int):
        self.params = params
        self.seed = seed
        self.position = 0
        self._total = params.num_ksets
        self._ranks: list[int] = []

    def __iter__(self) -> "EdgeStream":
        return self

    def __next__(self) -> Edge:
        if self.position >= self._total:
            raise StopIteration
        if self.position == len(self._ranks):
            size = min(2 * self.position + 1, self._total)
            self._ranks = _first_ranks(self._total, self.seed, size).tolist()
        r = self._ranks[self.position]
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
    draw = _first_ranks(total, seed, min(M, total - M))
    return Hypergraph.from_ranks(params, np.sort(_distinct_ranks(draw, total, M)))


def sample_binomial(params: Params, p: float, seed: int) -> Hypergraph:
    """Every k-set an edge independently with probability p: the one-count
    case of ``_binomial_chains``."""
    ((_, _, ranks),) = _binomial_chains(params.num_ksets, _edge_counts(params, p, [seed]), seed)
    return Hypergraph.from_ranks(params, np.sort(ranks))


def _binomial_batches(params: Params, p: float, seeds, edges: int, trials: int):
    """Lists of ``sample_binomial``'s sorted ranks on the consecutive seeds
    of the iterable `seeds`: at most `trials` trials and `edges` edges a
    batch, or one trial past `edges`, yielded before the next count.  A
    seed's count is drawn and checked before the batch it closes is
    yielded; each batch drops its words (its trials' first rounds) first."""
    total = params.num_ksets
    batch, held = [], 0  # (seed, edge count, first round's words) per trial; their edges
    for seed in seeds:
        m, rng = _binomial_count(params, p, seed)
        if batch and (held + m > edges or len(batch) == trials):
            ranks, batch, held = _binomial_batch(total, batch), [], 0
            yield ranks
        batch.append((seed, m, _round_words(rng, total, 0, min(m, total - m))))
        held += m
        if held > edges:
            ranks, batch, held = _binomial_batch(total, batch), [], 0
            yield ranks
    if batch:
        ranks, batch = _binomial_batch(total, batch), []
        yield ranks


def _binomial_batch(total: int, trials: list[tuple[int, int, bytes]]) -> list[np.ndarray]:
    """The sorted ranks of the binomial sample of count m on seed for each
    (seed, m, words) in `trials`: one ``_batch_first_ranks`` draw, and a
    trial whose first round holds too few values redrawn alone, by its chain."""
    draws = _batch_first_ranks(total, [min(m, total - m) for _, m, _ in trials], [w for _, _, w in trials])
    return [np.sort(next(_binomial_chains(total, [m], seed))[2] if draw is None else _distinct_ranks(draw, total, m))
            for (seed, m, _), draw in zip(trials, draws)]


def _binomial_count(params: Params, p: float, seed: int) -> tuple[int, random.Random]:
    """``sample_binomial``'s edge count, guardrail-checked, and its generator,
    whose next words a batched rank draw reads (``_binomial_batches``)."""
    _validate_probability(p, "p")
    rng = random.Random(seed)
    m = _draw_binomial_count(rng, params.num_ksets, p)
    check_cap("edge count m", m)
    return m, rng


def _edge_counts(params: Params, p: float, seeds: list[int]) -> list[int]:
    """``sample_binomial``'s edge count on each seed, guardrail-checked."""
    return [_binomial_count(params, p, seed)[0] for seed in seeds]


def _binomial_chains(total: int, counts, seed: int):
    """(i, fresh, new ranks) for each count in increasing order: count m's
    sample on `seed`, ``_distinct_ranks(draw, total, m)``, is the new ranks
    since its chain's `fresh` start, up to total // 2 a prefix of the draw
    and past it a complement (Newman & Ziff 2001, made exact).  The one draw
    skips the ``random()`` a count at p in (0, 1) reads; p = 0 or 1 needs none."""
    rng, half, done = random.Random(seed), total // 2, None
    rng.random()
    draw = first_distinct_ranks(rng, total, max(min(m, total - m) for m in counts))
    del rng  # spent; held through the merges, it raised a static run's peak RSS
    for i in sorted(range(len(counts)), key=counts.__getitem__):
        m = counts[i]
        if done is None or done <= half < m:  # a chain starts
            yield i, True, _distinct_ranks(draw, total, m)
        else:
            yield i, False, draw[done:m] if m <= half else draw[total - m:total - done]
        done = m


def _first_ranks(total: int, seed: int, count: int) -> np.ndarray:
    """The first `count` distinct ranks in [0, total) on `seed`, in draw
    order: the process's first `count` edges at total = C(n, k), and every
    other one-trial draw on a fresh generator."""
    return first_distinct_ranks(random.Random(seed), total, count)


def _process_batch(params: Params, seeds: list[int], count: int) -> list[np.ndarray]:
    """``_first_ranks(C(n, k), seed, count)`` for each seed: one
    ``_batch_first_ranks`` draw, and a trial whose first round holds too few
    values redrawn alone."""
    total = params.num_ksets
    words = [_round_words(random.Random(seed), total, 0, count) for seed in seeds]
    draws = _batch_first_ranks(total, [count] * len(seeds), words)
    return [_first_ranks(total, seed, count) if draw is None else draw for seed, draw in zip(seeds, draws)]


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


def _distinct_ranks(draw: np.ndarray, total: int, count: int) -> np.ndarray:
    """The `count` ranks a ``first_distinct_ranks`` draw of min(count, total
    - count) or more defines: its first `count`, in draw order, or for count
    > total // 2 the complement (uniform too) of its first total - count."""
    if count > total // 2:
        keep = np.ones(total, dtype=bool)
        keep[draw[:total - count]] = False
        return np.flatnonzero(keep)
    return draw[:count]


def first_distinct_ranks(rng: random.Random, total: int, count: int) -> np.ndarray:
    """The first `count` distinct values of repeated ``rng.randrange(total)``,
    in draw order, as int64.  `rng` is spent: each round of draws reads
    words past the last kept draw.

    ``randrange(total)`` draws b = total.bit_length() bits and rejects
    values >= total.  For b <= 32 the bits are one 32-bit MT19937 word
    shifted right by 32 - b; for 33 <= b <= 63 they are two words, the low
    one first and the high one shifted right by 64 - b.  ``getrandbits(32 *
    W)`` returns the next W words little-endian, so a round of draws is one
    call (``_round_words``) mapped with numpy (``_rank_candidates``).
    `total` must fit in int64, as every binomial coefficient here does;
    `count` > `total` raises ``ValidationError`` before any word is drawn.
    Kept values and each round's in-range values form one pool whose first
    occurrences are kept (``_first_occurrences``).  A round is at most 2 *
    count + 64 draws (``_draw_size``), so the pool, its keys and every other
    array held here have at most 3 * count + 64 entries.
    """
    if count > total:
        raise ValidationError(f"cannot draw count={count} distinct ranks from total={total}")
    values = np.empty(0, dtype=np.int64)
    if count <= 0:
        return values
    bits = total.bit_length()
    while len(values) < count:
        cand = _rank_candidates(_round_words(rng, total, len(values), count), bits)
        pool = np.concatenate((values, cand.compress(cand < total)))  # kept values, then this round's (branch-free)
        values = pool[_first_occurrences(pool, bits)[:count]]
    return values


def _batch_first_ranks(total: int, counts: list[int], words: list[bytes]) -> list[np.ndarray | None]:
    """``first_distinct_ranks(rng, total, counts[b])`` for each trial b whose
    first round, ``words[b] = _round_words(rng, total, 0, counts[b])``, holds
    that many distinct values, else None (that draw reads a second round).
    The trials' words are mapped, filtered and deduplicated together: one
    pool, its values keyed by trial, and one ``_first_occurrences`` sort."""
    bits = total.bit_length()
    size = 4 if bits <= 32 else 8  # bytes per draw
    cand = _rank_candidates(b"".join(words), bits)
    keep = cand < total
    pool = cand.compress(keep)
    trial = np.repeat(np.arange(len(words)), [len(w) // size for w in words]).compress(keep)
    del cand, keep  # freed before the sort's keys are built
    first = _first_occurrences(pool, bits, trial)
    values = pool[first]  # trial b's are values[starts[b]:starts[b + 1]]
    starts = np.searchsorted(trial[first], np.arange(len(words) + 1)).tolist()
    return [values[a:a + c] if a + c <= end else None for a, end, c in zip(starts, starts[1:], counts)]


def _draw_size(total: int, kept: int, count: int) -> int:
    """Draws in the next round of ``first_distinct_ranks`` once `kept` of
    its `count` values are: 5% and 32 past the expected number, at most
    2 * count + 64."""
    free, need = total - kept, count - kept
    # expected draws for `need` new values: 2^b / total per in-range
    # draw, times total * ln(free / (free - need)) in-range draws
    expected = (1 << total.bit_length()) * -math.log1p(-need / free) if need < free else math.inf
    return int(min(1.05 * expected + 32, 2 * count + 64))


def _first_occurrences(pool: np.ndarray, bits: int, trial: np.ndarray | None = None) -> np.ndarray:
    """Ascending indices of the first occurrence of each value in `pool`, an
    int64 array of values below 2^bits; given `trial`, each entry's trial
    number (non-decreasing), of each value within its trial.  One sort of
    the packed keys (trial << bits | value) << s | index, s =
    len(pool).bit_length(), puts each key's occurrences in draw order;
    ``np.unique`` stands in when the keys would pass 63 bits."""
    shift = len(pool).bit_length()
    field = int(trial[-1]).bit_length() if trial is not None and len(trial) else 0
    if field + bits + shift > 63:
        rows = pool if trial is None else np.stack((trial, pool), axis=1)
        return np.sort(np.unique(rows, axis=0, return_index=True)[1])
    key = (trial << bits | pool if field else pool) << shift | np.arange(len(pool))
    key.sort()  # each value's occurrences in draw order
    value = key >> shift
    head = np.ones(len(key), dtype=bool)
    head[1:] = value[1:] != value[:-1]
    first = np.zeros(len(key), dtype=bool)  # the heads' indices, put back in draw order
    first[key[head] & (1 << shift) - 1] = True
    return np.flatnonzero(first)


def _round_words(rng: random.Random, total: int, kept: int, count: int) -> bytes:
    """The little-endian 32-bit words of the next round of
    ``first_distinct_ranks(rng, total, count)`` once `kept` of its values
    are: ``_draw_size`` draws of one word each, two past 32 bits."""
    size = (4 if total.bit_length() <= 32 else 8) * _draw_size(total, kept, count)
    return rng.getrandbits(8 * size).to_bytes(size, "little")


def _rank_candidates(words: bytes, bits: int) -> np.ndarray:
    """The ``getrandbits(bits)``, 1 <= bits <= 63, values that
    ``_round_words`` bytes hold, as int64."""
    w = np.frombuffer(words, "<u4")
    if bits <= 32:
        return (w >> (32 - bits)).astype(np.int64)
    return w[0::2].astype(np.int64) | (w[1::2] >> (64 - bits)).astype(np.int64) << 32


def _draw_binomial_count(rng: random.Random, n_trials: int, p: float) -> int:
    """One Binomial(n_trials, p) draw by log-space CDF inversion."""
    if p <= 0.0:
        return 0
    if p >= 1.0:
        return n_trials
    if p > 0.5:
        return n_trials - _draw_binomial_count(rng, n_trials, 1.0 - p)
    mean = n_trials * p
    if mean > _MAX_INVERSION_MEAN:
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
    last bits.  Past 2^53, float(n - m) is not exact either: the replay
    rounds n and then n - m, and ``math.log`` its exact int, each by at most
    2^-53 relative, so the two logs' arguments differ by under 2 eps
    relative.  Allowing each log within 4 ulp of the true log, one step
    drifts log pmf and log CDF by at most eps * S, with eps = 2^-52 and S =
    2 |log odds| + 12 log(n + 1) + 2 max|log pmf| + 9 covering the two
    logs, their arguments' rounding (2), the sums' roundings and
    ``logaddexp`` (1-Lipschitz); after m steps the drift is
    at most m * eps * S.  The first step whose exit test might pass within
    twice that bound must pass outside it, or the answer is None.  A block's
    log CDF plus the drift is non-decreasing, so the first step whose CDF
    test might pass is one ``searchsorted`` in the cached block.
    """
    log_pmf = n_trials * math.log1p(-p)
    if log_u <= log_pmf:  # step 0 carries no drift
        return 0
    if log_u < _MIN_LOG_U:  # below any log(random()); the blocks keep no steps for it
        return None
    carry = (0, log_pmf, log_pmf, abs(log_pmf))
    while True:
        hi, lo, skip, exit_at, exit_sure, after = _inversion_block(n_trials, p, *carry)
        c = min(skip + int(np.searchsorted(hi, log_u, "left")), exit_at)
        if c < skip + len(hi):
            sure = log_u <= lo[c - skip] or (c == exit_at and exit_sure)
            return carry[0] + 1 + c if sure else None
        carry = after


@functools.lru_cache(maxsize=8)  # each block holds at most (2^16 + 1) * 16 bytes
def _inversion_block(n_trials: int, p: float, start: int, log_pmf: float, log_cdf: float, top: float):
    """The replay's steps start + 1 onwards from log pmf, log CDF and the top
    |log pmf| at `start`: read-only log CDF + drift (`hi`, non-decreasing)
    and - drift (`lo`) from the first step `skip` whose `hi` reaches
    log(2^-53); the first index where the log_u-free exit might pass (the
    length if none) and whether it surely does; the next block's carry."""
    mean = n_trials * p
    log_odds = math.log(p) - math.log1p(-p)
    size = min(math.ceil(mean + 10.0 * math.sqrt(mean * (1.0 - p))), _MAX_INVERSION_BLOCK) + 1
    scale = 2.0 * abs(log_odds) + 12.0 * math.log(n_trials + 1) + 9.0
    stop = min(start + size, n_trials)
    m = np.arange(start, stop, dtype=np.float64)  # the steps m -> m + 1
    steps = log_odds + np.log(n_trials - m) - np.log(m + 1.0)
    log_pmfs = np.add.accumulate(np.concatenate(([log_pmf], steps)))[1:]
    log_cdfs = np.logaddexp.accumulate(np.concatenate(([log_cdf], log_pmfs)))[1:]
    top = max(top, float(np.abs(log_pmfs).max()))
    drift = 2.0 * _EPS * stop * (scale + 2.0 * top)
    at_end = m + 1.0 >= n_trials
    maybe = at_end | ((m + 1.0 > mean) & (log_pmfs < -745.0 + drift))  # the tail break
    hits = np.flatnonzero(maybe)
    e = int(hits[0]) if len(hits) else len(m)
    sure = e < len(m) and bool(at_end[e] or log_pmfs[e] < -745.0 - drift)  # maybe[e] holds
    hi, lo = log_cdfs + drift, log_cdfs - drift
    skip = min(int(np.searchsorted(hi, _MIN_LOG_U)), e)
    hi, lo = hi[skip:].copy(), lo[skip:].copy()  # copies, so the cache frees the rest
    hi.flags.writeable = lo.flags.writeable = False
    return hi, lo, skip, e, sure, (stop, float(log_pmfs[-1]), float(log_cdfs[-1]), top)


def _logaddexp(a: float, b: float) -> float:
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))
