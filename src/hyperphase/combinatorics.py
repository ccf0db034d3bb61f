"""Exact combinatorics over vertex subsets.

Subsets of [n] = {1, ..., n} are canonical tuples: strictly increasing,
1-based.  Ranking is colexicographic: shifting to 0-based values
v_1 < ... < v_r, rank(S) = sum_i C(v_i, i).  A colex rank does not depend
on n, so a subset keeps its rank as the vertex set grows, and ranks are
dense in [0, C(n, r)), which makes them directly usable as array indices.

Results are exact integers but capped at the 64-bit range: anything larger
raises OverflowError instead of silently producing values that no dense
index array could hold.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import ValidationError

if TYPE_CHECKING:
    from .params import Params

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


def colex_key(s: Sequence[int]) -> tuple[int, ...]:
    """Sort key realizing colex order: compare reversed tuples."""
    return tuple(reversed(s))


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


def _binomial_column(i: int, n: int) -> np.ndarray:
    """C(v, i) for v in [0, n), saturated at INT64_MAX: it can pass 2^63 for
    i < k even when C(n, k) fits, but every entry a valid rank selects is <= it."""
    return np.array([min(math.comb(v, i), INT64_MAX) for v in range(n)], dtype=np.int64)


def colex_unrank_array(ranks: Sequence[int] | np.ndarray, size: int, n: int) -> np.ndarray:
    """colex_unrank of every rank, as an (m, size) int64 array; ranks must lie
    in [0, C(n, size)), unchecked."""
    r = np.array(ranks, dtype=np.int64)
    out = np.empty((len(r), size), dtype=np.int64)
    for i in range(size, 0, -1):
        col = _binomial_column(i, n)
        v = np.searchsorted(col, r, side="right") - 1
        out[:, i - 1] = v + 1
        r -= col[v]
    return out


def jset_rank_array(edges: np.ndarray, j: int, n: int) -> np.ndarray:
    """jset_ranks of every row of an (m, k) array of canonical edges on [n],
    as an (m, C(k, j)) int64 array; rows unchecked."""
    k = edges.shape[1]
    # terms[i][p] = C(edges[:, p] - 1, i + 1): vertex p as a j-set's (i+1)-th
    terms = [_binomial_column(i + 1, n)[edges - 1].T for i in range(j)]
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


def validate_subset(s: Iterable[int], size: int, n: int, what: str = "subset") -> tuple[int, ...]:
    """Check canonical form: exactly `size` strictly increasing vertices in [1, n]."""
    t = tuple(s)
    if len(t) != size:
        raise ValidationError(f"{what} {t} must have exactly {size} vertices, got {len(t)}")
    prev = 0
    for v in t:
        if v <= prev:
            raise ValidationError(f"{what} {t} must be strictly increasing with vertices >= 1")
        prev = v
    if t and t[-1] > n:
        raise ValidationError(f"{what} {t} has vertices outside [1, {n}]")
    return t


def rank_jset(s: Iterable[int], params: "Params") -> int:
    """Dense index of a j-set in [0, C(n, j))."""
    t = validate_subset(s, params.j, params.n, "j-set")
    return colex_rank(t)


def unrank_jset(rank: int, params: "Params") -> JSet:
    """Inverse of rank_jset."""
    total = binomial(params.n, params.j)
    if not 0 <= rank < total:
        raise ValidationError(f"j-set rank {rank} outside [0, {total})")
    return colex_unrank(rank, params.j, params.n)


def sub_jsets(e: Iterable[int], j: int) -> list[JSet]:
    """All C(k, j) j-subsets of an edge, in colex order."""
    t = tuple(e)
    prev = 0
    for v in t:
        if v <= prev:
            raise ValidationError(f"edge {t} must be strictly increasing with vertices >= 1")
        prev = v
    if not 1 <= j <= len(t) - 1:
        raise ValidationError(f"j must satisfy 1 <= j <= {len(t) - 1}, got {j}")
    return sorted(combinations(t, j), key=colex_key)
