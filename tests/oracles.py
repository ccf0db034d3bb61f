"""Test oracles that share no code with the engine's kernels, and use no numpy.

``bfs_components`` floods the graph of edges meeting in >= j vertices and
``walk_partition`` walks a dict from j-set to the edges through it, both
over j-set tuples; ``rank_union_find_labels`` is a scalar union-find over
rows of indices, the reference for ``components.merge_ranks`` whichever
way a round compresses.
"""

from collections import deque
from itertools import combinations

from hyperphase.errors import ResourceLimitError

BFS_ORACLE_MAX_JSETS = 10_000


def bfs_components(h):
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
    adj = [[] for _ in range(m)]
    for a in range(m):
        va = vertex_sets[a]
        for b in range(a + 1, m):
            if len(va & vertex_sets[b]) >= j:
                adj[a].append(b)
                adj[b].append(a)
    assigned = [False] * m
    components = []
    for start in range(m):
        if assigned[start]:
            continue
        assigned[start] = True
        queue = deque([start])
        group = set()
        while queue:
            e = queue.popleft()
            group.update(combinations(edges[e], j))
            for f in adj[e]:
                if not assigned[f]:
                    assigned[f] = True
                    queue.append(f)
        components.append(frozenset(group))
    return sorted(components, key=lambda c: min(s[::-1] for s in c))  # colex order


def walk_partition(edges, jsets):
    """Every j-component of `edges` as a frozenset of j-set tuples, each
    j-set of `jsets` in one (the isolated ones alone): a walk over a dict
    from j-set to the edges through it, with no ranks and no numpy."""
    j, through, parts, seen = len(jsets[0]), {}, set(), set()
    for edge in edges:
        for s in combinations(edge, j):
            through.setdefault(s, []).append(edge)
    for start in jsets:
        if start in seen:
            continue
        part, stack = {start}, [start]
        while stack:
            for edge in through.pop(stack.pop(), ()):
                fresh = set(combinations(edge, j)) - part
                part |= fresh
                stack += fresh
        seen |= part
        parts.add(frozenset(part))
    return parts


def rank_union_find_labels(labels, rows):
    """The labels ``merge_ranks(labels, rows)`` must return, from a scalar
    union-find: start from the partition of the list `labels` (each index
    with the index its label names), join each row of the list of lists
    `rows`, and label every index with the smallest index of its set."""
    parent = list(range(len(labels)))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving
        return x

    def union(a, b):
        a, b = find(a), find(b)
        parent[max(a, b)] = min(a, b)  # a root is the smallest index of its set

    for x, label in enumerate(labels):
        union(x, label)
    for row in rows:
        for x in row[1:]:
            union(row[0], x)
    return [find(x) for x in range(len(labels))]
