"""Exact j-component computation.

Two j-sets are j-connected when a walk of edges joins them in which
consecutive edges intersect in at least j vertices.  Two facts make the
union-find engine exact: the C(k, j) j-subsets of one edge are pairwise
j-connected through that edge alone, and two edges intersect in >= j
vertices exactly when they share a full j-set.  Merging every applied
edge's j-subsets therefore produces precisely the transitive closure of
the walk relation.  The engine has one merge kernel,
``JSetUnionFind.apply_ranks``: it labels the rows of an int64 j-set rank
array by hook-and-compress; ``apply_edge`` and ``component_summary``
rank one edge or a whole ``Hypergraph.array`` and call it.
``bfs_components`` recomputes components from pairwise edge intersections
instead and exists to cross-check that equivalence, not to restate it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .combinatorics import Edge, JSet, colex_rank, colex_unrank, colex_unrank_array
from .combinatorics import jset_rank_array, jset_ranks, validate_subset
from .errors import ResourceLimitError
from .models import Hypergraph
from .params import Params

BFS_ORACLE_MAX_JSETS = 10_000


class JSetUnionFind:
    """Union-find over the C(n, j) colex-ranked j-sets of [n].

    The labels are always fully compressed: every j-set points straight at
    the smallest rank of its component, and they are the whole per-j-set
    state: component sizes, isolated j-sets (the singletons) and
    connectivity all come from them.  ``apply_ranks`` is the one merge
    kernel; ``apply_edge`` ranks one edge and calls it.  Single-writer: no
    concurrent mutation.
    """

    def __init__(self, params: Params):
        params.check_jsets()
        self.params = params
        self._labels = np.arange(params.num_jsets, dtype=np.int64)
        self._num_sets = params.num_jsets
        self._edges_applied = 0

    @property
    def num_sets_remaining(self) -> int:
        return self._num_sets

    @property
    def edges_applied(self) -> int:
        return self._edges_applied

    @property
    def is_j_connected(self) -> bool:
        return self._num_sets == 1

    def find(self, rank: int) -> int:
        """The smallest rank in the component of `rank`."""
        return int(self._labels[rank])

    def apply_edge(self, edge: Edge) -> int:
        """Merge the edge's j-subsets into one set; returns unions performed.

        Idempotent: re-applying an edge returns 0.
        """
        edge = validate_subset(edge, self.params.k, self.params.n, "edge")
        return self.apply_ranks(np.array([jset_ranks(edge, self.params.j)], dtype=np.int64))

    def apply_ranks(self, ranks: np.ndarray) -> int:
        """Merge the j-sets of each row of an (m, C(k, j)) int64 rank array;
        returns unions performed.  Each row must hold one edge's C(k, j)
        distinct ranks, as ``jset_rank_array`` gives them (unchecked), so
        that the singletons are exactly the isolated j-sets.
        Hook-and-compress (Shiloach & Vishkin 1982): each round hooks the
        roots of every edge still split to their smallest, then
        pointer-jumps.  Roots only ever point down, so no cycle forms, and
        each round retires a root per split edge."""
        labels = self._labels
        pending = np.ascontiguousarray(ranks.T)  # (C(k, j), edges not yet inside one component)
        while pending.shape[1]:
            roots = labels[pending]
            low = roots.min(axis=0)
            np.minimum.at(labels, roots.ravel(), np.tile(low, len(roots)))
            labels = _compress(labels)
            # edges that were split stay pending; compress keeps rows contiguous
            pending = pending.compress(low != roots.max(axis=0), axis=1)
        self._labels = labels
        before = self._num_sets
        self._num_sets = int(np.count_nonzero(labels == np.arange(len(labels))))
        self._edges_applied += len(ranks)
        return before - self._num_sets

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
            params=self.params,
            m=self._edges_applied,
            largest=nontrivial[0] if nontrivial else 0,
            second=nontrivial[1] if len(nontrivial) > 1 else 0,
            num_nontrivial=len(nontrivial),
            isolated_count=int(np.count_nonzero(sizes == 1)),
            is_j_connected=self.is_j_connected,
        )


@dataclass(frozen=True)
class ComponentSummary:
    """Census of j-components, sizes counted in j-sets.

    Isolated j-sets (contained in no edge) are reported separately and are
    not counted among the non-trivial components.
    """

    params: Params
    m: int
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

    @property
    def boundary(self) -> tuple[JSet, ...]:
        """The last generation discovered before the exploration stopped."""
        return self.generations[-1]


def _compress(parent: np.ndarray) -> np.ndarray:
    """Pointer jumping: a copy of the forest with every node pointing at its root."""
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return grand
        parent = grand


def _union_find(h: Hypergraph) -> JSetUnionFind:
    """A fresh union-find with every edge of `h` applied in one batch."""
    uf = JSetUnionFind(h.params)
    uf.apply_ranks(jset_rank_array(h.array, h.params.j, h.params.n))  # h.array is validated
    return uf


def component_summary(h: Hypergraph) -> ComponentSummary:
    """Label every edge of `h` in a fresh union-find and report the census."""
    return _union_find(h).summary()


def largest_component_jsets(h: Hypergraph) -> np.ndarray:
    """All j-sets of the largest component as the rows of a (|L1|, j) int64
    array, ascending by colex rank; (0, j) if `h` has no edges."""
    return colex_unrank_array(_union_find(h).largest_component_ranks(), h.params.j, h.params.n)


def bfs_components(h: Hypergraph) -> list[frozenset[JSet]]:
    """Reference component computation straight from the walk definition.

    Builds the graph whose nodes are edges, adjacent when they intersect in
    >= j vertices, floods it, and collects each edge-group's j-subsets.
    Intended for small instances; the result partition must match the
    union-find engine's exactly.
    """
    total = h.params.num_jsets
    if total > BFS_ORACLE_MAX_JSETS:
        raise ResourceLimitError(
            f"bfs_components is capped at {BFS_ORACLE_MAX_JSETS} j-sets, instance has {total}"
        )
    j = h.params.j
    edges = h.edges
    m = len(edges)
    vertex_sets = [set(e) for e in edges]
    adj: list[list[int]] = [[] for _ in range(m)]
    for a in range(m):
        va = vertex_sets[a]
        for b in range(a + 1, m):
            if len(va & vertex_sets[b]) >= j:
                adj[a].append(b)
                adj[b].append(a)
    assigned = [False] * m
    components: list[frozenset[JSet]] = []
    for start in range(m):
        if assigned[start]:
            continue
        assigned[start] = True
        queue = deque([start])
        group: set[JSet] = set()
        while queue:
            e = queue.popleft()
            group.update(combinations(edges[e], j))
            for f in adj[e]:
                if not assigned[f]:
                    assigned[f] = True
                    queue.append(f)
        components.append(frozenset(group))
    return sorted(components, key=lambda c: min(s[::-1] for s in c))  # colex order


def bfs_explore(
    h: Hypergraph, start: JSet, max_generations: int | None = None
) -> ExplorationRecord:
    """Explore the component of `start` generation by generation.

    Generation i+1 holds every unseen j-set lying in an edge together with
    some generation-i j-set, ascending by colex rank.  Stops after
    max_generations expansions (None means unbounded) or when a generation
    comes up empty; `exhausted` tells whether the whole component was
    discovered.  Walks an index from each j-set rank to the edges holding
    it: one pass over the edges builds it, the walk is linear in the
    component, and memory grows with the edges whatever n.  Ranks are exact
    Python integers, so C(n, j) past the int64 range is fine.
    """
    j, n = h.params.j, h.params.n
    start = validate_subset(start, j, n, "j-set")
    if max_generations is not None and max_generations < 0:
        raise ValueError(f"max_generations must be >= 0, got {max_generations}")

    edge_ranks = [jset_ranks(e, j) for e in h.edges]
    index: dict[int, list[int]] = {}
    for ei, ranks in enumerate(edge_ranks):
        for r in ranks:
            index.setdefault(r, []).append(ei)
    first = colex_rank(start)
    seen = {first}
    processed = [False] * len(edge_ranks)

    def expand(frontier: list[int]) -> list[int]:
        out: list[int] = []
        for r in frontier:
            for ei in index.get(r, ()):
                if not processed[ei]:
                    processed[ei] = True
                    out.extend(t for t in edge_ranks[ei] if t not in seen)
                    seen.update(edge_ranks[ei])
        return sorted(out)  # colex order

    generations = [[first]]
    exhausted = False
    while max_generations is None or len(generations) - 1 < max_generations:
        nxt = expand(generations[-1])
        if not nxt:
            exhausted = True
            break
        generations.append(nxt)
    if not exhausted:
        exhausted = not expand(generations[-1])  # peek one generation further
    gens = tuple(tuple(colex_unrank(r, j, n) for r in gen) for gen in generations)
    return ExplorationRecord(start=start, generations=gens, exhausted=exhausted)
