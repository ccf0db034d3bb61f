"""Exact j-component computation.

Two j-sets are j-connected when a walk of edges joins them in which
consecutive edges intersect in at least j vertices.  Two facts make the
union-find engine exact: the C(k, j) j-subsets of one edge are pairwise
j-connected through that edge alone, and two edges intersect in >= j
vertices exactly when they share a full j-set.  Merging every applied
edge's j-subsets therefore produces precisely the transitive closure of
the walk relation.  The engine has one merge kernel, ``merge_ranks``: it
labels the rows of an int64 j-set rank array by hook-and-compress, and a
round that hooks fewer ranks than there are labels pointer-jumps only the
roots it hooked.  ``JSetUnionFind.apply_ranks`` wraps it: ``apply_edge``
ranks one edge with ``colex_rank``, and ``component_summary`` ranks a
``Hypergraph.array`` with ``jset_rank_array`` in blocks of ``block_rows``
edges, as the static runs do; ``hitting`` calls it on one label array per
batch of trials.  ``bfs_explore`` holds no ranks: it walks j-set tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .combinatorics import Edge, JSet, colex_rank, colex_unrank_array, jset_rank_array, max_jsets_cap, validate_subset
from .combinatorics import colex_unrank  # unused: bench/tracing.py binds it (ROADMAP item 2)
from .errors import ConvergenceError, ValidationError
from .models import Hypergraph
from .params import Params

_BATCH_RANKS = 2**13  # int64 j-set ranks in one block: 64 KiB, under glibc's 128 KiB mmap threshold


class JSetUnionFind:
    """Union-find over the C(n, j) colex-ranked j-sets of [n].

    The labels are always fully compressed: every j-set points straight at
    the smallest rank of its component, and they are the whole per-j-set
    state: ``summary``, ``largest_component_ranks``, ``partition`` and
    ``find`` read them.  ``apply_ranks`` merges with the one
    kernel, ``merge_ranks``; ``apply_edge`` ranks one edge and calls it.
    Single-writer: no concurrent mutation.
    """

    def __init__(self, params: Params):
        params.check_jsets()
        self.params = params
        self._labels = np.arange(params.num_jsets, dtype=np.int64)

    def find(self, rank: int) -> int:
        """The smallest rank in the component of `rank`."""
        if not 0 <= rank < len(self._labels):
            raise ValidationError(f"j-set rank {rank} outside [0, {len(self._labels)})")
        return int(self._labels[rank])

    def apply_edge(self, edge: Edge) -> int:
        """Merge the edge's j-subsets into one set; returns unions performed.

        Idempotent: re-applying an edge returns 0.
        """
        edge = validate_subset(edge, self.params.k, self.params.n, "edge")
        ranks = [colex_rank(s) for s in combinations(edge, self.params.j)]
        unions = len(set(self._labels[ranks].tolist())) - 1  # the edge joins the sets it meets
        self.apply_ranks(np.array([ranks], dtype=np.int64))
        return unions

    def apply_ranks(self, ranks: np.ndarray) -> None:
        """Merge the j-sets of each row of an (m, C(k, j)) int64 rank array
        with ``merge_ranks``.  Each row must hold one edge's C(k, j) distinct
        ranks, as ``jset_rank_array`` gives them (unchecked), so that the
        singletons are exactly the isolated j-sets."""
        self._labels = merge_ranks(self._labels, ranks)

    def partition(self) -> list[frozenset[int]]:
        """Non-trivial components as frozensets of j-set ranks, ordered by
        their smallest rank."""
        order = np.argsort(self._labels, kind="stable")  # labels are the smallest ranks
        groups = np.split(order, np.flatnonzero(np.diff(self._labels[order])) + 1)
        return [frozenset(g.tolist()) for g in groups if len(g) > 1]  # singletons are isolated

    def largest_component_ranks(self) -> np.ndarray:
        """Ranks of the largest component as an ascending int64 array; ties
        broken towards the component containing the smallest rank.  Empty
        if no edges."""
        sizes = np.bincount(self._labels)
        root = np.argmax(sizes)  # first maximum: ties go to the smallest rank
        if sizes[root] < 2:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(self._labels == root)

    def summary(self) -> ComponentSummary:
        """The census.  Isolated j-sets are the singleton components: every
        edge puts its C(k, j) >= 2 j-sets in one component."""
        sizes = np.bincount(self._labels)
        nontrivial = np.sort(sizes[sizes > 1])[::-1].tolist()
        return ComponentSummary(
            largest=nontrivial[0] if nontrivial else 0,
            second=nontrivial[1] if len(nontrivial) > 1 else 0,
            num_nontrivial=len(nontrivial),
            isolated_count=int(np.count_nonzero(sizes == 1)),
            is_j_connected=len(sizes) == 1,  # every label is rank 0
        )


@dataclass(frozen=True)
class ComponentSummary:
    """Census of j-components, sizes counted in j-sets.

    Isolated j-sets (contained in no edge) are reported separately and are
    not counted among the non-trivial components.
    """

    largest: int
    second: int
    num_nontrivial: int
    isolated_count: int
    is_j_connected: bool


@dataclass(frozen=True)
class ExplorationRecord:
    """Generation-by-generation record of one component exploration."""

    start: JSet
    generations: tuple[tuple[JSet, ...], ...]
    exhausted: bool


def merge_ranks(labels: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """The one merge kernel: fully compressed int64 `labels` (each the
    smallest index of its set) with the indices of each row of the (m, r)
    int64 array `ranks` joined into one set; `labels` is updated in place
    and may be replaced, so use the labels returned.  Hook-and-compress
    (Shiloach & Vishkin 1982): each round hooks the roots of every row still
    split to their smallest, then pointer-jumps, and the loop ends at the
    first round with none split.  Roots only ever point down, so no cycle
    forms, and each round retires a root per split row, so a merge that
    has not ended after one round per label raises ``ConvergenceError``.

    ``_compress`` gathers every label about three times a round, however
    few roots the round hooked.  So a round whose split rows hold fewer
    ranks than there are labels (a late round of a large merge, or one
    ``apply_edge``) compresses only what it hooked.  A hooked root points at
    the smallest ``low`` of its split rows, a chain from it passes only
    through ``low`` values, and every other label is an old root or points
    at one.  Chasing the lows to their roots (writing each step back), then
    pointing each hooked root at its low's root, then one gather leave every
    label at the smallest rank of its set, as ``_compress`` does.  A round
    with at least as many split ranks as labels keeps ``_compress``: there
    the chase over its rows costs more than the full gathers."""
    pending = np.ascontiguousarray(ranks.T)  # (r, rows not yet inside one set)
    for _ in range(len(labels) + 1):
        roots = labels[pending]
        low = roots.min(axis=0)
        split = low != roots.max(axis=0)
        count = np.count_nonzero(split)  # ndarray.any would map ~128 KB more of numpy
        if not count:
            return labels
        for row in roots:  # row by row, so no tile of `low` is allocated
            np.minimum.at(labels, row, low)
        if count * len(roots) < len(labels):
            lows = low.compress(split)
            up = labels[lows]
            while not np.array_equal(grand := labels[up], up):
                labels[lows] = up = grand
            hooked = roots.compress(split, axis=1)
            labels[hooked] = labels[labels[hooked]]
            labels = labels[labels]
        else:
            labels = _compress(labels)
        pending = pending.compress(split, axis=1)  # compress keeps rows contiguous
    raise ConvergenceError(f"merge of {len(labels)} labels still split after {len(labels) + 1} rounds")


def block_rows(ranks_per_row: int) -> int:
    """How many rows of `ranks_per_row` j-set ranks one block holds: as many
    as fit ``_BATCH_RANKS`` and the guardrail cap, one at least."""
    return max(1, min(_BATCH_RANKS, max_jsets_cap()) // ranks_per_row)


def _compress(parent: np.ndarray) -> np.ndarray:
    """Pointer jumping: a copy of the forest with every node pointing at its root."""
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return grand
        parent = grand


def _union_find(h: Hypergraph) -> JSetUnionFind:
    """A fresh union-find with every edge of `h` applied, in blocks of
    ``block_rows`` edges."""
    params = h.params
    uf, rows = JSetUnionFind(params), block_rows(params.jsets_per_edge)
    for b in range(0, h.m, rows):
        uf.apply_ranks(jset_rank_array(h.array[b:b + rows], params.j, params.n))  # h.array is validated
    return uf


def component_summary(h: Hypergraph) -> ComponentSummary:
    """Label every edge of `h` in a fresh union-find and report the census."""
    return _union_find(h).summary()


def largest_component_jsets(h: Hypergraph) -> np.ndarray:
    """All j-sets of the largest component as the rows of a (|L1|, j) int64
    array, ascending by colex rank; (0, j) if `h` has no edges."""
    return colex_unrank_array(_union_find(h).largest_component_ranks(), h.params.j, h.params.n)


def bfs_explore(
    h: Hypergraph, start: JSet, max_generations: int | None = None
) -> ExplorationRecord:
    """Explore the component of `start` generation by generation.

    Generation i+1 holds every unseen j-set lying in an edge together with
    some generation-i j-set, in colex order.  Stops after max_generations
    expansions (None means unbounded) or when a generation comes up empty;
    `exhausted` tells whether the whole component was discovered.  Walks an
    index from each j-set to the edges holding it: one pass over the edges
    builds it, the walk is linear in the component, and memory grows with
    the edges whatever n.
    """
    j, n = h.params.j, h.params.n
    start = validate_subset(start, j, n, "j-set")
    if max_generations is not None and max_generations < 0:
        raise ValidationError(f"max_generations must be >= 0, got {max_generations}")

    edge_jsets = [list(combinations(e, j)) for e in h.edges]
    index: dict[JSet, list[int]] = {}
    for ei, jsets in enumerate(edge_jsets):
        for s in jsets:
            index.setdefault(s, []).append(ei)
    seen = {start}
    processed = [False] * len(edge_jsets)

    def expand(frontier: list[JSet]) -> list[JSet]:
        out: list[JSet] = []
        for s in frontier:
            for ei in index.get(s, ()):
                if not processed[ei]:
                    processed[ei] = True
                    out.extend(t for t in edge_jsets[ei] if t not in seen)
                    seen.update(edge_jsets[ei])
        return sorted(out, key=lambda t: t[::-1])  # colex order

    generations = [[start]]
    exhausted = False
    while max_generations is None or len(generations) - 1 < max_generations:
        nxt = expand(generations[-1])
        if not nxt:
            exhausted = True
            break
        generations.append(nxt)
    if not exhausted:
        exhausted = not expand(generations[-1])  # peek one generation further
    return ExplorationRecord(start=start, generations=tuple(map(tuple, generations)), exhausted=exhausted)
