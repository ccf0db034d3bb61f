import random
import tracemalloc
from itertools import combinations, islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperphase.combinatorics import binomial, colex_rank, colex_unrank, jset_rank_array
from hyperphase.components import (
    JSetUnionFind,
    bfs_explore,
    component_summary,
    largest_component_jsets,
    merge_ranks,
)
from hyperphase import components, experiments
from hyperphase.errors import ConvergenceError, ResourceLimitError, ValidationError
from hyperphase.experiments import ExperimentConfig, run_connectivity_probe, run_degree_experiment, run_hitting_time
from hyperphase.models import Hypergraph, process_stream, sample_binomial, sample_uniform
from hyperphase.params import Params
from oracles import bfs_components, rank_union_find_labels


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


def num_sets(uf):
    """The union-find's set count, read off its census."""
    s = uf.summary()
    return s.num_nontrivial + s.isolated_count


def test_dsu_new_sizes():
    assert num_sets(JSetUnionFind(Params(3, 2, 4))) == 6
    assert num_sets(JSetUnionFind(Params(3, 1, 10))) == 10
    assert num_sets(JSetUnionFind(Params(4, 3, 10))) == binomial(10, 3)


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


def test_sparse_merge_footprint_is_one_label_array():
    # 40 edges among 44,850 j-sets hook 120 ranks: the round compresses only
    # what it hooked, then gathers the labels once.  Past that one label
    # array it holds copies of its rows (pending, roots, the hooked roots and
    # their gathers) and arrays of its lows: 16 int64 per rank bounds them.
    params = Params(3, 2, 300)
    rows = jset_rank_array(sample_uniform(params, 40, 1).array, params.j, params.n)
    labels = np.arange(params.num_jsets)
    tracemalloc.start()
    try:
        labels = merge_ranks(labels, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (params.num_jsets + 16 * rows.size)
    assert np.array_equal(labels[rows], labels[rows[:, :1]].repeat(3, axis=1))  # each edge in one set


def test_hitting_footprint_is_one_batch():
    # a batch holds its ranks (at most _BATCH_RANKS int64 here, where one trial
    # has fewer), the prefix and edges they come from, the first-touch
    # positions and the merge's copies; its labels and first touch, B * C(n, j)
    # entries each, are smaller than its ranks.  Six rank arrays' worth bounds
    # all of it, whatever the number of trials.
    for params in (Params(3, 2, 30), Params(2, 1, 50)):  # 3,948 and 346 ranks per trial
        cfg = ExperimentConfig(params=params, trials=150, base_seed=1)
        run_hitting_time(ExperimentConfig(params=params, trials=1))  # binomial tables cached
        tracemalloc.start()
        try:
            run_hitting_time(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (6 * components._BATCH_RANKS + 2 * params.num_jsets)


def test_degree_footprint_is_one_batch():
    # a batch holds its trials' edge ranks, their unranked edges and the j-set
    # ranks (at most _BATCH_RANKS int64; C(k, j) >= k, so the edges are no
    # larger), jset_rank_array's vertex copy and np.unique's sorted copy: five
    # rank arrays' worth, whatever the trial count.  Past that the run keeps
    # one count per trial until its rows are built: 16 bytes of slack each
    # (an 8-byte list slot, and the batches filling the budget unevenly).
    params = Params(3, 1, 100)  # ~150 edges and ~450 j-set ranks per trial, ~18 trials per batch
    run_degree_experiment(ExperimentConfig(params=params, s=0, c=0.0, trials=1))  # tables cached
    peaks = {}
    for trials in (100, 800):
        tracemalloc.start()
        try:
            run_degree_experiment(ExperimentConfig(params=params, s=0, c=0.0, trials=trials, base_seed=1))
            _, peaks[trials] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peaks[100] <= 8 * 5 * components._BATCH_RANKS
    assert abs(peaks[800] - peaks[100]) <= 16 * (800 - 100)


def test_static_footprint_is_one_draw():
    # one (3,2,100) connprobe trial at omega = 3: m is ~9.9k below p_c and
    # ~19.6k above.  The trial holds one rank draw of the larger m, whose
    # first_distinct_ranks peaks under 8 int64 per kept rank (candidates,
    # their in-range copy, the pool and its packed keys), then at most two
    # label arrays of C(n, j) and a block's arrays, a few _BATCH_RANKS each.
    # A fresh sample per point also held its edges and its (m, 3) j-set ranks.
    params = Params(3, 2, 100)
    cfg = ExperimentConfig(params=params, omega=3.0, trials=1, base_seed=1)
    run_connectivity_probe(cfg)  # binomial tables cached
    tracemalloc.start()
    try:
        res = run_connectivity_probe(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    m = sample_binomial(params, res.above.p, 1).m
    assert peak <= 8 * (8 * m + 2 * params.num_jsets + 6 * components._BATCH_RANKS)


def test_apply_edge_merges_and_is_idempotent():
    uf = JSetUnionFind(Params(3, 2, 4))
    assert uf.apply_edge((1, 2, 3)) == 2
    assert uf.apply_edge((1, 2, 3)) == 0
    assert uf.summary().isolated_count == 3
    assert uf.apply_edge((2, 3, 4)) == 2
    params = Params(3, 2, 4)
    expected = closure_components(params, [(1, 2, 3), (2, 3, 4)])
    assert partition_of(uf, params) == expected
    assert expected[0] == frozenset({(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)})


def test_find_rejects_ranks_outside_the_jsets():
    uf = JSetUnionFind(Params(3, 2, 6))  # C(6, 2) = 15 j-sets
    uf.apply_edge((1, 2, 3))
    assert [uf.find(r) for r in (0, 1, 2, 14)] == [0, 0, 0, 14]
    for rank in (-1, 15):
        with pytest.raises(ValidationError, match=rf"rank {rank} outside \[0, 15\)"):
            uf.find(rank)


def test_apply_edge_validates():
    uf = JSetUnionFind(Params(3, 2, 4))
    with pytest.raises(ValidationError):
        uf.apply_edge((1, 2))
    with pytest.raises(ValidationError):
        uf.apply_edge((1, 2, 5))
    for bad in ((1.5, 2, 3), (1.0, 2.0, 3.0), (1, 2, "3")):  # no rounding to (1, 2, 3)
        with pytest.raises(ValidationError, match="vertices must be integers"):
            uf.apply_edge(bad)
    assert num_sets(uf) == 6
    assert uf.apply_edge((np.int64(1), 2, np.int32(3))) == 2


@pytest.mark.parametrize(
    "params", [Params(3, 2, 12), Params(4, 2, 16), Params(3, 1, 60), Params(4, 3, 9), Params(4, 2, 9)]
)
def test_apply_edge_walk_keeps_the_set_count(params):
    uf, edges, unions = JSetUnionFind(params), [], 0
    for edge in islice(process_stream(params, 3), 150):
        edges.append(edge)
        unions += uf.apply_edge(edge)
        roots = int(np.count_nonzero(uf._labels == np.arange(params.num_jsets)))  # each root is its own label
        assert num_sets(uf) == roots == params.num_jsets - unions
    assert uf.summary() == component_summary(Hypergraph(params, tuple(edges)))


def test_bfs_explore_rejects_non_integer_start():
    h = Hypergraph(Params(3, 2, 4), ((1, 2, 3),))
    with pytest.raises(ValidationError, match="vertices must be integers"):
        bfs_explore(h, (1.5, 2))


def test_bfs_explore_rejects_negative_max_generations():
    h = Hypergraph(Params(3, 2, 4), ((1, 2, 3),))
    with pytest.raises(ValidationError, match="max_generations must be >= 0, got -1"):
        bfs_explore(h, (1, 2), -1)


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
    assert rec.generations[-1] == ((2, 4), (3, 4))


def test_bfs_explore_isolated_start():
    h = Hypergraph(Params(3, 2, 5), ((1, 2, 3),))
    rec = bfs_explore(h, (4, 5), 10)
    assert rec.generations == (((4, 5),),)
    assert rec.exhausted
    assert rec.generations[-1] == ((4, 5),)


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

    def batch(rows, layout=np.asarray):  # unions from the set counts: apply_ranks returns none
        before = num_sets(uf)
        uf.apply_ranks(layout(jset_rank_array(rows, h.params.j, h.params.n)))
        return before - num_sets(uf)

    if mode == "apply_edge":
        return sum(uf.apply_edge(e) for e in h.edges)
    if mode == "apply_ranks":
        return batch(h.array)
    if mode == "apply_ranks-row-major":
        assert jset_rank_array(h.array, h.params.j, h.params.n).flags.f_contiguous
        return batch(h.array, np.ascontiguousarray)  # the kernel's own layout, copied row-major
    if mode == "batch-then-edges":
        return batch(h.array[:half]) + sum(uf.apply_edge(e) for e in h.edges[half:])
    return sum(uf.apply_edge(e) for e in h.edges[:half]) + batch(h.array[half:])


@pytest.mark.parametrize(
    "mode", ["apply_edge", "apply_ranks", "apply_ranks-row-major", "batch-then-edges", "edges-then-batch"]
)
@given(h=small_instances())
@settings(max_examples=40)
def test_dsu_equals_bfs_oracle(mode, h):
    uf = JSetUnionFind(h.params)
    unions = apply_in_mode(uf, h, mode)
    if mode == "apply_ranks-row-major":  # memory layout does not reach the labels
        column_major = JSetUnionFind(h.params)
        apply_in_mode(column_major, h, "apply_ranks")
        assert np.array_equal(uf._labels, column_major._labels)
        assert num_sets(uf) == num_sets(column_major)
        assert not h.array.flags.writeable  # h came from Hypergraph.from_ranks
        assert np.array_equal(h.array, Hypergraph(h.params, h.edges).array)
    oracle = sorted(bfs_components(h), key=lambda c: sorted(c))
    assert partition_of(uf, h.params) == oracle
    parts = uf.partition()
    assert all(uf.find(r) == min(c) for c in parts for r in c)  # every label is its part's smallest rank
    assert [min(c) for c in parts] == sorted(min(c) for c in parts)
    assert unions == h.params.num_jsets - num_sets(uf)
    sizes = sorted(map(len, oracle), reverse=True) + [0, 0]
    s = uf.summary()
    assert (s.largest, s.second, s.num_nontrivial) == (sizes[0], sizes[1], len(oracle))
    assert s.isolated_count == h.params.num_jsets - sum(sizes)
    assert s == component_summary(h)


@st.composite
def instance_batches(draw):
    """One to four binomial samples sharing the (k, j, n) of the first."""
    first = draw(small_instances())
    rest = draw(st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 10**6)), max_size=3))
    return [first] + [sample_binomial(first.params, p, seed) for p, seed in rest]


@given(instance_batches(), st.data())
@settings(max_examples=40)
def test_merge_ranks_keeps_offset_blocks_apart(hs, data):
    params = hs[0].params
    size = params.num_jsets
    rows = np.concatenate(
        [jset_rank_array(h.array, params.j, params.n) + b * size for b, h in enumerate(hs)]
    )
    rows = rows[data.draw(st.permutations(range(len(rows))))]  # the blocks' rows interleaved
    labels = merge_ranks(np.arange(len(hs) * size), rows)
    for b, h in enumerate(hs):
        uf = JSetUnionFind(params)
        uf.apply_ranks(jset_rank_array(h.array, params.j, params.n))
        assert np.array_equal(labels[b * size:(b + 1) * size], uf._labels + b * size)


def descending_path_rows(nodes, run):
    """Rows of three consecutive nodes along a path through `nodes`, laid
    out as descending runs of `run` nodes: a run hooks into two chains
    `run` / 2 deep, and the runs join over later rounds."""
    path = [x for i in range(0, len(nodes), run) for x in sorted(nodes[i:i + run], reverse=True)]
    return [path[i:i + 3] for i in range(len(path) - 2)]


class CountingNumpy:
    """numpy for ``components``, counting the kernel's rounds (one
    ``count_nonzero`` each) and failing a merge that does not converge."""

    def __init__(self):
        self.rounds = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def count_nonzero(self, a):
        self.rounds += 1
        assert self.rounds <= 100, "merge_ranks did not converge"
        return np.count_nonzero(a)


def test_merge_ranks_fails_instead_of_stalling(monkeypatch):
    # a compress step that leaves its input as it is keeps a 50-node path's
    # rows split (each round takes the full branch): the round bound turns
    # the stall into an error
    monkeypatch.setattr(components, "_compress", lambda parent: parent)
    path = np.stack((np.arange(49), np.arange(1, 50)), axis=1)
    with pytest.raises(ConvergenceError, match="^merge of 50 labels still split after 51 rounds$"):
        merge_ranks(np.arange(50), path)


def test_merge_ranks_equals_a_scalar_union_find(monkeypatch):
    # each case against rank_union_find_labels; a round that calls _compress
    # took the full branch, and labels that changed after the last such call
    # went through the subset branch
    compressed, compress, counter = [], components._compress, CountingNumpy()

    def spy_compress(parent):
        compressed.append(compress(parent))
        return compressed[-1].copy()  # the kernel writes its labels in place

    def merge(labels, rows):
        compressed.clear()
        counter.rounds = 0
        got = merge_ranks(np.array(labels, dtype=np.int64), np.array(rows, dtype=np.int64))
        assert got.tolist() == rank_union_find_labels(labels, rows)
        branches = {"full"} if compressed else set()
        if not np.array_equal(compressed[-1] if compressed else labels, got):
            branches.add("subset")
        return got.tolist(), branches, counter.rounds - 1  # the last round finds none split

    monkeypatch.setattr(components, "_compress", spy_compress)
    monkeypatch.setattr(components, "np", counter)
    rng = random.Random(1)
    # (a) 3,000 nodes of a descending-run path among 20,000 labels: chains
    # 20 deep, and the runs join over five rounds
    assert merge(list(range(20_000)), descending_path_rows(rng.sample(range(20_000), 3_000), 40))[1:] == ({"subset"}, 5)
    # (b) one descending run through 60 labels: 58 rows, one round, chains 30 deep
    assert merge(list(range(60)), descending_path_rows(list(range(60)), 60))[1:] == ({"full"}, 1)
    # (c) labels pre-merged in pairs, then 250 disjoint rows and a path: full, then subset
    perm, labels = rng.sample(range(900), 900), [0] * 900
    for a, b in zip(perm[::2], perm[1::2]):
        labels[a] = labels[b] = min(a, b)
    perm = rng.sample(range(900), 900)
    rows = [perm[i:i + 3] for i in range(0, 750, 3)] + descending_path_rows(rng.sample(range(900), 60), 10)
    assert merge(labels, rows)[1] == {"full", "subset"}
    # (d) three (3,2,30) trials on one offset label array, as the hitting
    # batches merge them: all but each trial's last three edges, then one
    # edge per trial a call
    params = Params(3, 2, 30)
    blocks = [(jset_rank_array(sample_binomial(params, 0.05, seed).array, 2, 30) + b * 435).tolist()
              for b, seed in enumerate((1, 2, 3))]
    labels, branches, _ = merge(list(range(3 * 435)), [row for block in blocks for row in block[:-3]])
    assert "full" in branches
    steps = set()
    for t in (-3, -2, -1):
        labels, branches, _ = merge(labels, [block[t] for block in blocks])
        steps |= branches
    assert steps == {"subset"}
    # (e) 50 descending runs of seven nodes, each node the root of a pair
    # whose other member is in no row: one round hooks chains three deep,
    # and only the round's compress reaches the other members
    nodes, others, labels = rng.sample(range(1_000), 350), rng.sample(range(1_000, 2_000), 350), list(range(2_000))
    for v, w in zip(nodes, others):
        labels[w] = v
    rows = [row for i in range(0, 350, 7) for row in descending_path_rows(nodes[i:i + 7], 7)]
    assert merge(labels, rows)[1:] == ({"subset"}, 1)


@given(small_instances())
@settings(max_examples=40)
def test_conservation_and_connectivity_iff(h):
    s = component_summary(h)
    uf = JSetUnionFind(h.params)
    for e in h.edges:
        uf.apply_edge(e)
    sizes = [len(c) for c in uf.partition()]
    assert s.isolated_count + sum(sizes) == h.params.num_jsets
    assert s.is_j_connected == (num_sets(uf) == 1) == (s.largest == h.params.num_jsets)


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
    prev_sets = num_sets(uf)
    prev_largest = 0
    for e in edges[:30]:
        uf.apply_edge(e)
        s = uf.summary()
        assert num_sets(uf) <= prev_sets
        assert s.largest >= prev_largest
        prev_sets, prev_largest = num_sets(uf), s.largest


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
