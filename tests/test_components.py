import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperphase.combinatorics import binomial, colex_rank, colex_unrank, jset_rank_array
from hyperphase.components import (
    JSetUnionFind,
    bfs_components,
    bfs_explore,
    component_summary,
    largest_component_jsets,
)
from hyperphase.errors import ResourceLimitError, ValidationError
from hyperphase.models import Hypergraph, sample_binomial
from hyperphase.params import Params


def closure_components(params, edges):
    """Third-route oracle: fixed-point closure over j-set co-membership."""
    groups = [set(combinations(e, params.j)) for e in edges]
    merged = True
    while merged:
        merged = False
        out = []
        for g in groups:
            for h in out:
                if g & h:
                    h |= g
                    merged = True
                    break
            else:
                out.append(g)
        groups = out
    return sorted((frozenset(g) for g in groups), key=lambda c: sorted(c))


def partition_of(uf, params):
    return sorted(
        (frozenset(colex_unrank(r, params.j, params.n) for r in c) for c in uf.partition()),
        key=lambda c: sorted(c),
    )


def test_dsu_new_sizes():
    assert JSetUnionFind(Params(3, 2, 4)).num_sets_remaining == 6
    assert JSetUnionFind(Params(3, 1, 10)).num_sets_remaining == 10
    assert JSetUnionFind(Params(4, 3, 10)).num_sets_remaining == binomial(10, 3)


def test_dsu_guardrail(monkeypatch):
    monkeypatch.setenv("HYPERPHASE_MAX_JSETS", "100")
    with pytest.raises(ResourceLimitError, match=r"C\(n=30, j=2\) = 435 exceeds the guardrail cap 100"):
        JSetUnionFind(Params(3, 2, 30))


def test_dsu_footprint_per_jset():
    params = Params(3, 2, 300)  # 44,850 j-sets: an int64 label each, and no other per-j-set array
    tracemalloc.start()
    try:
        JSetUnionFind(params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / params.num_jsets <= 8.5


def test_apply_edge_merges_and_is_idempotent():
    uf = JSetUnionFind(Params(3, 2, 4))
    assert uf.apply_edge((1, 2, 3)) == 2
    assert uf.apply_edge((1, 2, 3)) == 0
    assert uf.edges_applied == 2
    assert uf.summary().isolated_count == 3
    assert uf.apply_edge((2, 3, 4)) == 2
    params = Params(3, 2, 4)
    expected = closure_components(params, [(1, 2, 3), (2, 3, 4)])
    assert partition_of(uf, params) == expected
    assert expected[0] == frozenset({(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)})


def test_apply_edge_validates():
    uf = JSetUnionFind(Params(3, 2, 4))
    with pytest.raises(ValidationError):
        uf.apply_edge((1, 2))
    with pytest.raises(ValidationError):
        uf.apply_edge((1, 2, 5))
    for bad in ((1.5, 2, 3), (1.0, 2.0, 3.0), (1, 2, "3")):  # no rounding to (1, 2, 3)
        with pytest.raises(ValidationError, match="vertices must be integers"):
            uf.apply_edge(bad)
    assert uf.edges_applied == 0 and uf.num_sets_remaining == 6
    assert uf.apply_edge((np.int64(1), 2, np.int32(3))) == 2


def test_bfs_explore_rejects_non_integer_start():
    h = Hypergraph(Params(3, 2, 4), ((1, 2, 3),))
    with pytest.raises(ValidationError, match="vertices must be integers"):
        bfs_explore(h, (1.5, 2))


def test_summary_single_edge_connects_when_n_equals_k():
    h = Hypergraph(Params(3, 2, 3), ((1, 2, 3),))
    s = component_summary(h)
    assert (s.largest, s.second, s.isolated_count, s.is_j_connected) == (3, 0, 0, True)


def test_summary_two_disjoint_edges():
    h = Hypergraph(Params(3, 2, 6), ((1, 2, 3), (4, 5, 6)))
    s = component_summary(h)
    assert (s.largest, s.second, s.num_nontrivial, s.isolated_count) == (3, 3, 2, 9)
    assert not s.is_j_connected


def test_summary_intersection_below_j_does_not_merge():
    h = Hypergraph(Params(3, 2, 5), ((1, 2, 3), (3, 4, 5)))
    s = component_summary(h)
    assert (s.largest, s.second) == (3, 3)


def test_summary_counts_conserve():
    h = Hypergraph(Params(3, 2, 6), ((1, 2, 3), (2, 3, 4)))
    s = component_summary(h)
    assert s.isolated_count + s.largest + s.second == binomial(6, 2)


def test_bfs_components_matches_summary_examples():
    for params, edges in (
        (Params(3, 2, 3), ((1, 2, 3),)),
        (Params(3, 2, 6), ((1, 2, 3), (4, 5, 6))),
        (Params(3, 2, 5), ((1, 2, 3), (3, 4, 5))),
    ):
        h = Hypergraph(params, edges)
        oracle = sorted(bfs_components(h), key=lambda c: sorted(c))
        assert oracle == closure_components(params, edges)


def test_bfs_components_empty_and_complete():
    assert bfs_components(Hypergraph(Params(3, 2, 5))) == []
    params = Params(3, 2, 5)
    complete = Hypergraph(params, tuple(combinations(range(1, 6), 3)))
    comps = bfs_components(complete)
    assert len(comps) == 1 and len(comps[0]) == binomial(5, 2)
    assert component_summary(complete).is_j_connected


def test_bfs_components_guardrail():
    with pytest.raises(ResourceLimitError, match="capped at 10000 j-sets, instance has 11175"):
        bfs_components(Hypergraph(Params(3, 2, 150)))


def test_bfs_explore_hand_traced():
    h = Hypergraph(Params(3, 2, 4), ((1, 2, 3), (2, 3, 4)))
    rec = bfs_explore(h, (1, 2), 10)
    assert rec.generations == (((1, 2),), ((1, 3), (2, 3)), ((2, 4), (3, 4)))
    assert rec.exhausted
    assert rec.boundary == ((2, 4), (3, 4))


def test_bfs_explore_isolated_start():
    h = Hypergraph(Params(3, 2, 5), ((1, 2, 3),))
    rec = bfs_explore(h, (4, 5), 10)
    assert rec.generations == (((4, 5),),)
    assert rec.exhausted
    assert rec.boundary == ((4, 5),)


def test_bfs_explore_truncation_contract():
    h = Hypergraph(Params(3, 2, 4), ((1, 2, 3), (2, 3, 4)))
    rec = bfs_explore(h, (1, 2), 0)
    assert rec.generations == (((1, 2),),)
    assert not rec.exhausted
    isolated = bfs_explore(Hypergraph(Params(3, 2, 5), ((1, 2, 3),)), (4, 5), 0)
    assert isolated.exhausted


def test_bfs_explore_unbounded_reproduces_component():
    h = Hypergraph(Params(3, 2, 7), ((1, 2, 3), (2, 3, 4), (5, 6, 7)))
    rec = bfs_explore(h, (1, 2))
    explored = {s for gen in rec.generations for s in gen}
    component = next(c for c in bfs_components(h) if (1, 2) in c)
    assert rec.exhausted and explored == set(component)


def test_generations_disjoint_and_adjacent():
    h = sample_binomial(Params(3, 2, 9), 0.1, 3)
    start = (1, 2)
    rec = bfs_explore(h, start)
    seen = set()
    for gen in rec.generations:
        assert not (set(gen) & seen)
        seen.update(gen)


@st.composite
def small_instances(draw):
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k, 10))
    j = draw(st.integers(1, k - 1))
    p = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 10**6))
    return sample_binomial(Params(k, j, n), p, seed)


@given(small_instances(), st.data())
@settings(max_examples=40)
def test_explore_generations_partition_the_component(h, data):
    j, n = h.params.j, h.params.n
    start = colex_unrank(data.draw(st.integers(0, h.params.num_jsets - 1)), j, n)
    rec = bfs_explore(h, start)
    seen = set()
    for gen in rec.generations:
        ranks = [colex_rank(s) for s in gen]
        assert ranks == sorted(set(ranks))  # ascending colex rank, no repeats
        assert not seen & set(gen)
        seen |= set(gen)
    component = next((c for c in bfs_components(h) if start in c), {start})
    assert rec.exhausted and seen == set(component)
    g = data.draw(st.integers(0, len(rec.generations)))
    assert bfs_explore(h, start, g).generations == rec.generations[: g + 1]


def apply_in_mode(uf, h, mode):
    """Apply h's edges one at a time, as one ranked batch, or half each way."""
    half = h.m // 2

    def batch(rows):
        return uf.apply_ranks(jset_rank_array(rows, h.params.j, h.params.n))

    if mode == "apply_edge":
        return sum(uf.apply_edge(e) for e in h.edges)
    if mode == "apply_ranks":
        return batch(h.array)
    if mode == "batch-then-edges":
        return batch(h.array[:half]) + sum(uf.apply_edge(e) for e in h.edges[half:])
    return sum(uf.apply_edge(e) for e in h.edges[:half]) + batch(h.array[half:])


@pytest.mark.parametrize("mode", ["apply_edge", "apply_ranks", "batch-then-edges", "edges-then-batch"])
@given(h=small_instances())
@settings(max_examples=40)
def test_dsu_equals_bfs_oracle(mode, h):
    uf = JSetUnionFind(h.params)
    unions = apply_in_mode(uf, h, mode)
    oracle = sorted(bfs_components(h), key=lambda c: sorted(c))
    assert partition_of(uf, h.params) == oracle
    parts = uf.partition()
    assert all(uf.find(r) == min(c) for c in parts for r in c)  # every label is its part's smallest rank
    assert [min(c) for c in parts] == sorted(min(c) for c in parts)
    assert unions == h.params.num_jsets - uf.num_sets_remaining
    assert uf.edges_applied == h.m
    sizes = sorted(map(len, oracle), reverse=True) + [0, 0]
    s = uf.summary()
    assert (s.largest, s.second, s.num_nontrivial) == (sizes[0], sizes[1], len(oracle))
    assert s.isolated_count == h.params.num_jsets - sum(sizes)
    assert s == component_summary(h)


@given(small_instances())
@settings(max_examples=40)
def test_conservation_and_connectivity_iff(h):
    s = component_summary(h)
    uf = JSetUnionFind(h.params)
    for e in h.edges:
        uf.apply_edge(e)
    sizes = [len(c) for c in uf.partition()]
    assert s.isolated_count + sum(sizes) == h.params.num_jsets
    assert s.is_j_connected == (uf.num_sets_remaining == 1) == (s.largest == h.params.num_jsets)


@given(small_instances(), st.randoms(use_true_random=False))
@settings(max_examples=25)
def test_permutation_invariance(h, rng):
    edges = list(h.edges)
    rng.shuffle(edges)
    uf1 = JSetUnionFind(h.params)
    uf2 = JSetUnionFind(h.params)
    for e in h.edges:
        uf1.apply_edge(e)
    for e in edges:
        uf2.apply_edge(e)
    assert uf1.partition() == uf2.partition()
    assert component_summary(h) == component_summary(Hypergraph(h.params, tuple(edges)))


def test_monotonicity_along_stream():
    params = Params(3, 2, 8)
    rng = random.Random(11)
    edges = list(combinations(range(1, 9), 3))
    rng.shuffle(edges)
    uf = JSetUnionFind(params)
    prev_sets = uf.num_sets_remaining
    prev_largest = 0
    for e in edges[:30]:
        uf.apply_edge(e)
        s = uf.summary()
        assert uf.num_sets_remaining <= prev_sets
        assert s.largest >= prev_largest
        prev_sets, prev_largest = uf.num_sets_remaining, s.largest


def test_largest_component_tie_breaks_to_smallest_rank():
    # two components of size 3; {1,2} has the smallest rank
    h = Hypergraph(Params(3, 2, 6), ((4, 5, 6), (1, 2, 3)))
    members = largest_component_jsets(h)
    assert members.dtype == np.int64
    assert members.tolist() == [[1, 2], [1, 3], [2, 3]]
    assert colex_rank(tuple(members[0].tolist())) == 0


def test_static_census_never_replays_edges(monkeypatch):
    def refuse(self, edge):
        raise AssertionError("static census must not replay edges one at a time")

    h = sample_binomial(Params(3, 2, 12), 0.2, 5)
    summary, members = component_summary(h), largest_component_jsets(h)
    monkeypatch.setattr(JSetUnionFind, "apply_edge", refuse)
    assert component_summary(h) == summary
    assert np.array_equal(largest_component_jsets(h), members) and len(members) == summary.largest


def test_largest_component_empty_hypergraph():
    members = largest_component_jsets(Hypergraph(Params(3, 2, 5)))
    assert members.shape == (0, 2) and members.dtype == np.int64
