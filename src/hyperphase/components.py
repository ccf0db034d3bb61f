"""Exact j-component computation.

Two j-sets are j-connected when a walk of edges joins them in which
consecutive edges intersect in at least j vertices.  Two facts make the
union-find engine exact: the C(k, j) j-subsets of one edge are pairwise
j-connected through that edge alone, and two edges intersect in >= j
vertices exactly when they share a full j-set.  Merging every applied
edge's j-subsets therefore produces precisely the transitive closure of
the walk relation.  ``bfs_components`` recomputes components from pairwise
edge intersections instead and exists to cross-check that equivalence,
not to restate it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .combinatorics import Edge, JSet, canonical_rows, colex_key, colex_unrank, jset_rank_array
from .combinatorics import jset_ranks, sub_jsets, validate_subset
from .errors import ResourceLimitError, ValidationError
from .models import Hypergraph
from .params import Params

BFS_ORACLE_MAX_JSETS = 10_000


class JSetUnionFind:
    """Union-find over the C(n, j) colex-ranked j-sets of [n].

    The one forest rule: no parent has a larger rank than its child, so
    every root is the smallest rank of its component.  Path compression
    keeps the rule.  Single-writer: no concurrent mutation.
    """

    def __init__(self, params: Params):
        params.check_jsets()
        total = params.num_jsets
        self.params = params
        self._j = params.j
        self._total = total
        self._parent = np.arange(total, dtype=np.int64)
        self._touched = np.zeros(total, dtype=bool)
        self._touched_count = 0
        self._num_sets = total
        self._edges_applied = 0

    @property
    def num_sets_remaining(self) -> int:
        return self._num_sets

    @property
    def edges_applied(self) -> int:
        return self._edges_applied

    @property
    def touched_count(self) -> int:
        return self._touched_count

    @property
    def untouched_count(self) -> int:
        return self._total - self._touched_count

    @property
    def is_j_connected(self) -> bool:
        return self._num_sets == 1

    def find(self, rank: int) -> int:
        parent = self._parent
        root = rank
        while True:
            p = int(parent[root])
            if p == root:
                break
            root = p
        while rank != root:
            rank, parent[rank] = int(parent[rank]), root
        return root

    def _union(self, a: int, b: int) -> bool:
        ra = self.find(a)
        rb = self.find(b)
        if ra == rb:
            return False
        self._parent[max(ra, rb)] = min(ra, rb)  # the forest rule
        self._num_sets -= 1
        return True

    def apply_edge(self, edge: Edge) -> int:
        """Merge the edge's j-subsets into one set; returns unions performed.

        Idempotent: re-applying an edge returns 0.
        """
        validate_subset(edge, self.params.k, self.params.n, "edge")
        ranks = jset_ranks(edge, self._j)
        touched = self._touched
        for r in ranks:
            if not touched[r]:
                touched[r] = True
                self._touched_count += 1
        first = ranks[0]
        delta = 0
        for r in ranks[1:]:
            if self._union(first, r):
                delta += 1
        self._edges_applied += 1
        return delta

    def apply_edges(self, edges: np.ndarray) -> int:
        """``apply_edge`` for every row of an (m, k) array of canonical edges,
        such as ``Hypergraph.array``; returns unions performed.  Hook-and-compress (Shiloach &
        Vishkin 1982): each round hooks the roots of every edge still split
        to their smallest, then pointer-jumps.  Roots only ever point down,
        so no cycle forms, and each round retires a root per split edge."""
        k, n = self.params.k, self.params.n
        if not canonical_rows(edges, k, n):
            raise ValidationError(f"edges must be an integer (m, {k}) array of canonical edges on [{n}]")
        ranks = np.ascontiguousarray(jset_rank_array(edges, self._j, n).T)
        labels = _compress(self._parent)
        pending = ranks  # (C(k, j), edges not yet inside one component)
        while pending.shape[1]:
            roots = labels[pending]
            low = roots.min(axis=0)
            np.minimum.at(labels, roots.ravel(), np.tile(low, len(roots)))
            labels = _compress(labels)
            # edges that were split stay pending; compress keeps rows contiguous
            pending = pending.compress(low != roots.max(axis=0), axis=1)
        self._parent = labels
        before = self._num_sets
        self._num_sets = int(np.count_nonzero(labels == np.arange(self._total)))
        self._touched[ranks] = True
        self._touched_count = int(np.count_nonzero(self._touched))
        self._edges_applied += len(edges)
        return before - self._num_sets

    def _touched_labels(self) -> tuple[np.ndarray, np.ndarray]:
        """Touched ranks, ascending, and their roots.  Non-trivial components
        hold exactly the touched j-sets: an edge has at least two j-subsets."""
        self._parent = _compress(self._parent)
        touched = np.flatnonzero(self._touched)
        return touched, self._parent[touched]

    def partition(self) -> list[frozenset[int]]:
        """Non-trivial components as frozensets of j-set ranks, ordered by
        their smallest rank."""
        touched, labels = self._touched_labels()
        order = np.argsort(labels, kind="stable")  # labels are the smallest ranks
        bounds = np.flatnonzero(np.diff(labels[order])) + 1
        groups = np.split(touched[order], bounds) if len(touched) else []
        return [frozenset(g.tolist()) for g in groups]

    def largest_component_ranks(self) -> list[int]:
        """Ranks of the largest component, ascending; ties broken towards
        the component containing the smallest rank.  Empty if no edges."""
        touched, labels = self._touched_labels()
        if not len(touched):
            return []
        root = np.argmax(np.bincount(labels))  # first maximum: ties go to the smallest rank
        return touched[labels == root].tolist()

    def summary(self) -> ComponentSummary:
        _, labels = self._touched_labels()
        sizes = np.bincount(labels)
        sizes = np.sort(sizes[sizes > 0])[::-1].tolist()
        largest = sizes[0] if sizes else 0
        return ComponentSummary(
            params=self.params,
            m=self._edges_applied,
            largest=largest,
            second=sizes[1] if len(sizes) > 1 else 0,
            num_nontrivial=len(sizes),
            isolated_count=self._total - self._touched_count,
            is_j_connected=largest == self._total,
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
    uf.apply_edges(h.array)
    return uf


def component_summary(h: Hypergraph) -> ComponentSummary:
    """Label every edge of `h` in a fresh union-find and report the census."""
    return _union_find(h).summary()


def largest_component_jsets(h: Hypergraph) -> list[JSet]:
    """All j-sets of the largest component, ascending by rank."""
    j, n = h.params.j, h.params.n
    return [colex_unrank(r, j, n) for r in _union_find(h).largest_component_ranks()]


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
            group.update(sub_jsets(edges[e], j))
            for f in adj[e]:
                if not assigned[f]:
                    assigned[f] = True
                    queue.append(f)
        components.append(frozenset(group))
    return sorted(components, key=lambda c: min(map(colex_key, c)))


def bfs_explore(
    h: Hypergraph, start: JSet, max_generations: int | None = None
) -> ExplorationRecord:
    """Explore the component of `start` generation by generation.

    Generation i+1 holds every unseen j-set lying in an edge together with
    some generation-i j-set.  Stops after max_generations expansions (None
    means unbounded) or when a generation comes up empty; `exhausted` tells
    whether the whole component was discovered.
    """
    params = h.params
    j = params.j
    start = validate_subset(start, j, params.n, "j-set")
    if max_generations is not None and max_generations < 0:
        raise ValueError(f"max_generations must be >= 0, got {max_generations}")

    index: dict[JSet, list[int]] = {}
    for ei, e in enumerate(h.edges):
        for s in combinations(e, j):
            index.setdefault(s, []).append(ei)

    seen: set[JSet] = {start}
    processed: set[int] = set()

    def expand(frontier: tuple[JSet, ...]) -> tuple[JSet, ...]:
        out: list[JSet] = []
        for s in frontier:
            for ei in index.get(s, ()):
                if ei in processed:
                    continue
                processed.add(ei)
                for t in combinations(h.edges[ei], j):
                    if t not in seen:
                        seen.add(t)
                        out.append(t)
        return tuple(sorted(out, key=colex_key))

    generations: list[tuple[JSet, ...]] = [(start,)]
    exhausted = False
    while max_generations is None or len(generations) - 1 < max_generations:
        nxt = expand(generations[-1])
        if not nxt:
            exhausted = True
            break
        generations.append(nxt)
    if not exhausted:
        exhausted = not expand(generations[-1])  # peek one generation further
    return ExplorationRecord(start=start, generations=tuple(generations), exhausted=exhausted)
