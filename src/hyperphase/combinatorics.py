"""Exact combinatorics over vertex subsets.

Subsets of [n] = {1, ..., n} are canonical tuples: strictly increasing,
1-based.  Ranking is colexicographic: shifting to 0-based values
v_1 < ... < v_r, rank(S) = sum_i C(v_i, i).  A colex rank does not depend
on n, so a subset keeps its rank as the vertex set grows, and ranks are
dense in [0, C(n, r)), which makes them directly usable as array indices.

Results are exact integers but capped at the 64-bit range: anything larger
raises OverflowError instead of silently producing values that no dense
index array could hold.

The guardrail (``check_cap``) caps the length of every dense array sized by
such a count: C(n, j), the number of j-sets the union-find engine indexes
(``Params.check_jsets``), the vertex count n of a binomial table, the rank
count of ``jset_rank_array``, and a sample's edge count.  It exists so
oversized instances fail with a clear resource error instead of an
allocator death spiral.  The cap defaults to 2*10^8 and can be overridden
via HYPERPHASE_MAX_JSETS.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import os
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import ResourceLimitError, ValidationError

DEFAULT_MAX_JSETS = 200_000_000
MAX_JSETS_ENV = "HYPERPHASE_MAX_JSETS"

VertexId = int
JSet = tuple[int, ...]
Edge = tuple[int, ...]

INT64_MAX = 2**63 - 1


def binomial(n: int, r: int) -> int:
    """C(n, r) as an exact integer; 0 when r > n.

    Raises OverflowError for results beyond the 64-bit range, never wraps.
    """
    if n < 0 or r < 0:
        raise ValidationError(f"binomial arguments must be nonnegative, got ({n}, {r})")
    value = math.comb(n, r)
    if value > INT64_MAX:
        raise OverflowError(f"binomial({n}, {r}) = {value} exceeds the 64-bit integer range")
    return value


def max_jsets_cap() -> int:
    """Current guardrail cap (env override wins)."""
    raw = os.environ.get(MAX_JSETS_ENV)
    if raw is None:
        return DEFAULT_MAX_JSETS
    try:
        cap = int(raw)
    except ValueError:
        raise ValidationError(f"{MAX_JSETS_ENV} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValidationError(f"{MAX_JSETS_ENV} must be positive, got {cap}")
    return cap


def check_cap(what: str, count: int) -> None:
    """The guardrail: fail fast when `count` items would pass the cap."""
    cap = max_jsets_cap()
    if count > cap:
        raise ResourceLimitError(
            f"{what} = {count} exceeds the guardrail cap {cap} (override with {MAX_JSETS_ENV})"
        )


def colex_rank(s: Sequence[int]) -> int:
    """Colex rank of a canonical (strictly increasing, 1-based) subset."""
    return jset_ranks(s, len(s))[0]


def jset_ranks(edge: Sequence[int], j: int) -> list[int]:
    """Colex ranks of the C(k, j) j-subsets of a canonical edge, in
    ``itertools.combinations`` order (not sorted).  No validation: callers
    check the edge first."""
    ranks = []
    for sub in combinations(edge, j):
        r = 0
        for i, v in enumerate(sub, start=1):
            r += math.comb(v - 1, i)
        ranks.append(r)
    return ranks


def colex_unrank(rank: int, size: int, n: int) -> tuple[int, ...]:
    """The size-subset of [n] with the given colex rank; inverse of colex_rank.

    Greedy decomposition: the largest element (0-based v) is the largest v
    with C(v, size) <= rank, and so on downwards with the remainder.
    """
    if rank < 0:
        raise ValidationError(f"rank must be nonnegative, got {rank}")
    out = [0] * size
    r = rank
    hi = n - 1
    for i in range(size, 0, -1):
        lo = i - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if math.comb(mid, i) <= r:
                lo = mid
            else:
                hi = mid - 1
        out[i - 1] = lo + 1
        r -= math.comb(lo, i)
        hi = lo - 1
    if r != 0:
        raise ValidationError(f"rank {rank} is out of range for {size}-subsets of [{n}]")
    return tuple(out)


def _binomial_columns(i: int, n: int) -> np.ndarray:
    """C(v, t) at row t in [0, i], column v in [0, n), saturated at INT64_MAX:
    it can pass 2^63 for t < k even when C(n, k) fits, but every entry a
    valid rank selects is <= it.  Read-only and cached: the guardrail is
    checked on every call, the cap being read from the environment."""
    check_cap("vertex count n", n)
    return _binomial_table(i, n)


@functools.lru_cache(maxsize=4)
def _binomial_table(i: int, n: int) -> np.ndarray:
    cols = np.ones((i + 1, n), dtype=np.int64)
    for t in range(1, i + 1):
        # C(v, t) is the sum of C(u, t - 1) over u < v.  Entries before the
        # first v with C(v, t) > INT64_MAX sum only exact entries (that v is at
        # most one past the previous row's), and the rest are saturated.
        cols[t, :1] = 0
        np.cumsum(cols[t - 1, :-1], out=cols[t, 1:])
        cols[t, bisect.bisect_right(range(n), INT64_MAX, key=lambda v: math.comb(v, t)):] = INT64_MAX
    cols.flags.writeable = False
    return cols


def colex_unrank_array(ranks: Sequence[int] | np.ndarray, size: int, n: int) -> np.ndarray:
    """colex_unrank of every rank, as an (m, size) int64 array; ranks must lie
    in [0, C(n, size)), unchecked."""
    r = np.array(ranks, dtype=np.int64)
    cols = _binomial_columns(size, n)
    out = np.empty((len(r), size), dtype=np.int64)
    for i in range(size, 0, -1):
        v = np.searchsorted(cols[i], r, side="right") - 1
        out[:, i - 1] = v + 1
        r -= cols[i, v]
    return out


def jset_rank_array(edges: np.ndarray, j: int, n: int) -> np.ndarray:
    """jset_ranks of every row of an (m, k) array of canonical edges on [n],
    as an (m, C(k, j)) int64 array; rows unchecked."""
    m, k = edges.shape
    check_cap(f"j-set rank count m * C(k={k}, j={j})", m * math.comb(k, j))
    # terms[i][p] = C(edges[:, p] - 1, i + 1): vertex p as a j-set's (i+1)-th
    terms = _binomial_columns(j, n)[1:, edges.T - 1]
    out = np.empty((len(edges), math.comb(k, j)), dtype=np.int64)
    for c, sub in enumerate(combinations(range(k), j)):
        out[:, c] = sum(terms[i][p] for i, p in enumerate(sub))
    return out


def canonical_rows(edges: np.ndarray, size: int, n: int) -> bool:
    """Whether `edges` is an integer (m, size) array of canonical subsets of
    [n]: every row strictly increasing, vertices in [1, n]."""
    if edges.ndim != 2 or edges.shape[1] != size or edges.dtype.kind not in "iu":
        return False
    return not edges.size or bool(
        edges[:, 0].min() >= 1 and edges[:, -1].max() <= n and (np.diff(edges, axis=1) > 0).all()
    )


def canonical_array(rows, size: int, n: int) -> np.ndarray | None:
    """`rows` as an (m, size) int64 array if it is a non-empty integer array
    of canonical subsets of [n], else None."""
    try:
        arr = np.asarray(rows)
    except ValueError:  # ragged rows
        return None
    return arr.astype(np.int64, copy=False) if arr.size and canonical_rows(arr, size, n) else None


def validate_subset(s: Iterable[int], size: int, n: int, what: str = "subset") -> tuple[int, ...]:
    """Check canonical form: exactly `size` strictly increasing integer
    vertices in [1, n]; returns them as a tuple of ints."""
    t = tuple(s)
    if len(t) != size:
        raise ValidationError(f"{what} {t} must have exactly {size} vertices, got {len(t)}")
    try:
        t = tuple(map(operator.index, t))
    except TypeError:
        raise ValidationError(f"{what} {t}: vertices must be integers") from None
    prev = 0
    for v in t:
        if v <= prev:
            raise ValidationError(f"{what} {t} must be strictly increasing with vertices >= 1")
        prev = v
    if t and t[-1] > n:
        raise ValidationError(f"{what} {t} has vertices outside [1, {n}]")
    return t
