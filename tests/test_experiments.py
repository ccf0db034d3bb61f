import dataclasses
import math
import random
import statistics
from itertools import accumulate, combinations, product

import numpy as np
import pytest

from hyperphase import analysis, components, experiments, models
from hyperphase.analysis import degree_profile, thresholds
from hyperphase.combinatorics import colex_rank, colex_unrank, colex_unrank_array, jset_rank_array
from hyperphase.components import JSetUnionFind, component_summary, largest_component_jsets
from hyperphase.errors import ResourceLimitError, ValidationError
from hyperphase.experiments import (
    ExperimentConfig,
    HittingRecord,
    aggregate,
    run_connectivity_probe,
    run_degree_experiment,
    run_hitting_time,
    run_phase_sweep,
    run_smoothness_probe,
    tv_to_poisson,
)
from hyperphase.models import Hypergraph, first_distinct_ranks, process_stream, sample_binomial
from hyperphase.params import Params
from oracles import walk_partition


def test_aggregate_examples():
    s = aggregate([1, 1, 1])
    assert (s.mean, s.stddev) == (1.0, 0.0)
    s = aggregate([0, 2])
    assert s.mean == 1.0 and s.stddev == pytest.approx(math.sqrt(2))
    assert aggregate([5.0]).stddev == 0.0
    with pytest.raises(ValidationError):
        aggregate([])


def test_config_validation():
    params = Params(3, 2, 12)
    with pytest.raises(ValidationError):
        ExperimentConfig(params=params, trials=0)
    with pytest.raises(ValidationError):
        ExperimentConfig(params=params, eps_grid=(0.1, 0.0))
    ExperimentConfig(params=params, eps_grid=(0.1, 0.1))  # a repeated grid point runs twice
    with pytest.raises(ValidationError, match=r"ell_list values must be distinct, got \(0, 1, 0\)"):
        ExperimentConfig(params=params, ell_list=(0, 1, 0))
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        ExperimentConfig(params=params, base_seed=-3)
    with pytest.raises(ValidationError, match="omega"):
        ExperimentConfig(params=params).require("omega")


def test_sweep_requires_grid_and_valid_p():
    cfg = ExperimentConfig(params=Params(3, 2, 12), trials=2)
    with pytest.raises(ValidationError):
        run_phase_sweep(cfg)
    bad = ExperimentConfig(params=Params(3, 2, 12), trials=2, eps_grid=(-1.5,))
    with pytest.raises(ValidationError):
        run_phase_sweep(bad)


def test_sweep_eps_minus_one_is_empty_graph():
    params = Params(3, 2, 12)
    cfg = ExperimentConfig(params=params, trials=3, eps_grid=(-1.0,))
    (point,) = run_phase_sweep(cfg)
    assert point.p == 0.0
    assert all(t.largest == 0 and t.second == 0 for t in point.trials)
    assert point.predicted_fraction is None


def test_sweep_is_deterministic():
    cfg = ExperimentConfig(params=Params(3, 2, 15), trials=5, base_seed=42, eps_grid=(0.5, -0.5))
    a = run_phase_sweep(cfg)
    b = run_phase_sweep(cfg)
    assert a == b
    assert [len(point.trials) for point in a] == [5, 5]
    for point in a:
        for t in point.trials:
            assert t.second <= t.largest <= cfg.params.num_jsets


def test_sweep_supercritical_predicted_fraction():
    cfg = ExperimentConfig(params=Params(3, 2, 15), trials=2, eps_grid=(0.3,))
    (point,) = run_phase_sweep(cfg)
    assert point.predicted_fraction == pytest.approx(0.3)


# (params, ps): unsorted and repeated p, p = 0, p = 1 and p > 1/2, with
# counts on both sides of C(n, k) / 2 over the seeds
STATIC_CASES = [
    (Params(2, 1, 6), (0.8, 0.0, 0.3, 1.0, 0.55, 0.3, 0.9, 0.45)),
    (Params(3, 2, 8), (0.6, 0.1, 0.5, 0.5, 0.97, 0.02)),
    (Params(3, 1, 10), (0.05, 0.7, 0.3, 0.0)),
    (Params(4, 2, 9), (0.52, 0.48, 1.0, 0.2)),
    (Params(3, 2, 20), (0.004, 0.6, 0.02)),
    (Params(2, 1, 30), (0.3, 0.05, 0.75)),
]


@pytest.mark.parametrize("params,ps", STATIC_CASES, ids=[f"{p.k}-{p.j}-{p.n}" for p, _ in STATIC_CASES])
@pytest.mark.parametrize("block", [5, components._BATCH_RANKS])
@pytest.mark.parametrize("inversion_mean", [8.0, models._MAX_INVERSION_MEAN])
def test_static_union_finds_equal_per_point_samples(monkeypatch, params, ps, block, inversion_mean):
    # a mean past 8 takes the normal approximation, so a trial's counts mix
    # both branches; a block of 5 j-set ranks merges one or two rows at a time
    monkeypatch.setattr(models, "_MAX_INVERSION_MEAN", inversion_mean)
    monkeypatch.setattr(components, "_BATCH_RANKS", block)
    total, sides = params.num_ksets, set()
    for seed in range(12):
        samples = [sample_binomial(params, p, seed) for p in ps]
        order = []
        counts = [models._binomial_count(params, p, seed)[0] for p in ps]
        for i, uf in experiments._static_union_finds(params, counts, seed):
            assert uf.summary() == component_summary(samples[i])
            largest = colex_unrank_array(uf.largest_component_ranks(), params.j, params.n)
            assert np.array_equal(largest, largest_component_jsets(samples[i]))
            order.append(i)
        assert sorted(order) == list(range(len(ps)))
        assert [samples[i].m for i in order] == sorted(h.m for h in samples)  # count order
        sides.update(h.m > total // 2 for h in samples)
    assert sides == {False, True}


# (params, ps, _BATCH_RANKS, seeds): (3,2,100) near p_c and (3,2,150) near
# p_g, thousands of edges a point over several blocks, then many blocks of
# a few rows; (3,2,6) over both sides of C(6, 3) / 2, so that the trials
# grow a complement chain after a prefix chain
SCALE_CASES = [
    (Params(3, 2, 100), (0.085, 0.1, 0.094), components._BATCH_RANKS, (1, 2)),
    (Params(3, 2, 150), (0.0031, 0.0037, 0.0034), 30, (1,)),
    (Params(3, 2, 6), (0.25, 0.55, 0.8), 5, range(25)),
]


@pytest.mark.parametrize("params,ps,block,seeds", SCALE_CASES, ids=[f"{p.k}-{p.j}-{p.n}" for p, *_ in SCALE_CASES])
def test_static_union_finds_match_an_edge_walk(monkeypatch, params, ps, block, seeds):
    # the full partition at every chain point against walk_partition over
    # the point's own sample: the merge kernel, the j-set ranks and the
    # block boundaries are checked against code that uses none of them
    monkeypatch.setattr(components, "_BATCH_RANKS", block)
    jsets = sorted(combinations(range(1, params.n + 1), params.j), key=lambda s: s[::-1])  # colex order
    for seed in seeds:
        counts = [models._binomial_count(params, p, seed)[0] for p in ps]
        for i, uf in experiments._static_union_finds(params, counts, seed):
            parts = {frozenset(jsets[r] for r in part) for part in uf.partition()}
            covered = set().union(*parts)
            parts |= {frozenset([s]) for s in jsets if s not in covered}
            assert parts == walk_partition(sample_binomial(params, ps[i], seed).edges, jsets), (seed, ps[i])


def test_static_trials_draw_once_and_merge_each_rank_once(monkeypatch):
    # the golden "sweep-dense" run: C(6, 2) = 15 k-sets, p from 0 to 0.817
    params, eps_grid = Params(2, 1, 6), (3.9, -1, -0.5, 1.5, 0.5, 2.5, 1.5)
    cfg = ExperimentConfig(params=params, trials=10, base_seed=1, eps_grid=eps_grid)
    expected = run_phase_sweep(cfg)
    counts = [[sample_binomial(params, point.p, 1 + t).m for point in expected] for t in range(cfg.trials)]
    draws, chains, seen = [], [], []  # chains: [union-find, rows merged], in creation order
    draw, init, apply_ranks = models.first_distinct_ranks, JSetUnionFind.__init__, JSetUnionFind.apply_ranks
    count = models._draw_binomial_count

    def spy_draw(rng, total, count):
        draws.append(count)
        return draw(rng, total, count)

    def spy_count(rng, total, p):
        seen.append(p)
        return count(rng, total, p)

    def spy_init(uf, p):
        init(uf, p)
        chains.append([uf, 0])

    def spy_apply(uf, ranks):
        next(chain for chain in chains if chain[0] is uf)[1] += len(ranks)
        apply_ranks(uf, ranks)

    monkeypatch.setattr(models, "first_distinct_ranks", spy_draw)
    monkeypatch.setattr(JSetUnionFind, "__init__", spy_init)
    monkeypatch.setattr(JSetUnionFind, "apply_ranks", spy_apply)
    monkeypatch.setattr(models, "_draw_binomial_count", spy_count)
    assert run_phase_sweep(cfg) == expected
    # one count per (point, trial), point-major; a p in (1/2, 1) draws its
    # mirror 1 - p inside that call
    ps = [point.p for point in expected]
    assert seen == [q for p in ps for _ in range(cfg.trials) for q in ([p, 1.0 - p] if 0.5 < p < 1.0 else [p])]
    # one draw per trial, as long as its longest prefix
    assert draws == [max(min(m, 15 - m) for m in ms) for ms in counts]
    # a prefix chain (m <= 7) and a complement chain (m > 7) per trial, each
    # merging as many rows as its largest count
    per_chain = []
    for ms in counts:
        per_chain += [max(side) for side in ([m for m in ms if m <= 7], [m for m in ms if m > 7]) if side]
    assert [rows for _, rows in chains] == per_chain and len(per_chain) > cfg.trials


def test_static_counts_take_one_inversion_block_per_point():
    # the counts are drawn point by point, so each p's cached log-CDF block
    # is built once, though the cache holds fewer blocks than there are p
    eps_grid = (-0.4, -0.3, -0.2, -0.1, 0.1, 0.2, 0.3, 0.4, 0.6, 0.8)
    assert len(eps_grid) > models._inversion_block.cache_info().maxsize
    cfg = ExperimentConfig(params=Params(3, 2, 30), trials=4, base_seed=1, eps_grid=eps_grid)
    models._inversion_block.cache_clear()
    points = run_phase_sweep(cfg)
    assert models._inversion_block.cache_info().misses == len({point.p for point in points}) == len(eps_grid)


def test_hitting_single_edge_case():
    cfg = ExperimentConfig(params=Params(3, 2, 3), trials=5, base_seed=0)
    for rec in run_hitting_time(cfg):
        assert rec.t_c == rec.t_i == 1


def test_hitting_invariants():
    cfg = ExperimentConfig(params=Params(3, 2, 12), trials=30, base_seed=7)
    records = run_hitting_time(cfg)
    total_edges = Params(3, 2, 12).num_ksets
    for rec in records:
        assert 1 <= rec.t_i <= rec.t_c <= total_edges


@pytest.mark.parametrize("params", [Params(3, 2, 10), Params(2, 1, 12)])
def test_hitting_matches_offline_recomputation(params):
    cfg = ExperimentConfig(params=params, trials=10, base_seed=3)
    for t, rec in enumerate(run_hitting_time(cfg)):
        edges = []
        stream = process_stream(params, cfg.base_seed + t)
        for _ in range(rec.t_c):
            edges.append(next(stream))
        assert component_summary(Hypergraph(params, tuple(edges))).is_j_connected
        before = component_summary(Hypergraph(params, tuple(edges[: rec.t_c - 1])))
        assert not before.is_j_connected
        at_iso = component_summary(Hypergraph(params, tuple(edges[: rec.t_i])))
        assert at_iso.isolated_count == 0
        pre_iso = component_summary(Hypergraph(params, tuple(edges[: rec.t_i - 1])))
        assert pre_iso.isolated_count > 0


def per_edge_hitting_time(cfg):
    """The per-edge walk ``run_hitting_time`` replaces: one ``apply_edge``
    and one connectivity query per streamed edge, with first touches kept
    in a set of j-set ranks of its own."""
    params = cfg.params
    records = []
    for t in range(cfg.trials):
        seed = cfg.base_seed + t
        uf = JSetUnionFind(params)
        touched = set()
        t_i = 0
        step = 0
        for edge in process_stream(params, seed):
            step += 1
            uf.apply_edge(edge)
            touched.update(colex_rank(s) for s in combinations(edge, params.j))
            if t_i == 0 and len(touched) == params.num_jsets:
                t_i = step
            if uf.summary().is_j_connected:
                break
        else:
            raise RuntimeError("process exhausted before j-connectivity")
        records.append(HittingRecord(step, t_i))
    return records


HITTING_BATTERY = [
    Params(3, 2, 3),  # n = k: the one possible edge
    Params(5, 4, 5),
    Params(3, 2, 8),  # j = k - 1
    Params(4, 3, 7),
    Params(5, 4, 7),
    Params(2, 1, 4),
    Params(2, 1, 12),
    Params(2, 1, 30),
    Params(4, 1, 8),
    Params(4, 2, 9),
    Params(5, 2, 8),
    Params(5, 1, 10),
    Params(2, 1, 20),  # its first prefix at base seed 11 ends before T_c once
]


def spy_batches(monkeypatch):
    """Record (trials, count, results) for every batch ``run_hitting_time``
    hands to ``_hitting_times``."""
    batches = []
    hitting_times = experiments._hitting_times

    def spy(params, seeds, count):
        batches.append((len(seeds), count, hitting_times(params, seeds, count)))
        return batches[-1][2]

    monkeypatch.setattr(experiments, "_hitting_times", spy)
    return batches


def test_hitting_matches_per_edge_walk(monkeypatch):
    batches = spy_batches(monkeypatch)
    gaps = []
    for params in HITTING_BATTERY:
        cfg = ExperimentConfig(params=params, trials=15, base_seed=11)
        records = run_hitting_time(cfg)
        assert records == per_edge_hitting_time(cfg)
        gaps += [r.t_c - r.t_i for r in records]
    assert any(None in found for _, _, found in batches)  # a prefix ended before T_c
    assert any(count > batches[0][1] for _, count, _ in batches[1:])  # and was redrawn longer
    assert max(gaps) >= 3  # T_c > T_i + 2 merges several edges forward from T_i


def spy_table(monkeypatch):
    """Clear ``_jset_table``'s cache, so a build ranks through whatever
    kernels are spied, and record the columns of every gather from it."""
    gathered, table = [], experiments._jset_table
    table.cache_clear()

    class Gather:
        def __init__(self, key):
            self.table = table(*key)

        def take(self, drawn, axis):
            gathered.append(len(drawn))
            return self.table.take(drawn, axis=axis)

    monkeypatch.setattr(experiments, "_jset_table", lambda *key: Gather(key))
    return gathered


def test_hitting_ranks_each_prefix_once(monkeypatch):
    # a budget of 0 keeps the kernels: one unrank and one j-rank pass per
    # batch; at _TABLE_RANKS the C(20, 2) * 2 = 380 entries are admitted: one
    # table build, then one gather per batch
    cfg = ExperimentConfig(params=Params(2, 1, 20), trials=15, base_seed=11)
    rank_array, records = experiments.jset_rank_array, []
    for budget in (0, experiments._TABLE_RANKS):
        monkeypatch.setattr(experiments, "_TABLE_RANKS", budget)
        batches, ranked, gathered = spy_batches(monkeypatch), [], spy_table(monkeypatch)

        def spy_rank(*args):
            ranked.append(args[0].shape[0])
            return rank_array(*args)

        monkeypatch.setattr(experiments, "jset_rank_array", spy_rank)
        monkeypatch.setattr(components, "jset_rank_array", spy_rank)  # a component_summary census would rank here
        records.append(run_hitting_time(cfg))
        monkeypatch.undo()
        assert [(trials, count) for trials, count, _ in batches] == [(15, 60), (1, 120)]  # trial 5 redrawn
        if budget:
            assert ranked == [cfg.params.num_ksets]  # the table's build
            assert gathered == [trials * count for trials, count, _ in batches]  # one gather per batch
        else:
            assert ranked == [trials * count for trials, count, _ in batches]  # one pass per batch
            assert gathered == []
    assert records[1] == records[0]


def test_hitting_merges_one_label_array_per_batch(monkeypatch):
    batches, merges = spy_batches(monkeypatch), []
    merge = experiments.merge_ranks

    def spy_merge(labels, ranks):
        merges.append((len(batches), len(ranks)))  # the batch it belongs to, its rows
        return merge(labels, ranks)

    def no_union_find(self, params):
        raise AssertionError("hitting merges one label array per batch, not a union-find per trial")

    monkeypatch.setattr(experiments, "merge_ranks", spy_merge)
    monkeypatch.setattr(components.JSetUnionFind, "__init__", no_union_find)
    records = run_hitting_time(ExperimentConfig(params=Params(2, 1, 20), trials=40, base_seed=11))
    assert (records[13].t_c, records[13].t_i) == (26, 24)  # T_c > T_i: two edges merged past T_i
    for b, (_, _, found) in enumerate(batches):
        times = [t for t in found if t]  # here every None had a j-set untouched: it merged nothing
        gaps = [t_c - t_i for t_c, t_i in times]
        steps = [sum(gap > s for gap in gaps) for s in range(max(gaps))]  # trials still split at step s
        # one call for every trial's first T_i rows, then one per forward step
        assert [rows for at, rows in merges if at == b] == [sum(t_i for _, t_i in times)] + steps
    assert merges[1:3] == [(0, 3), (0, 3)]  # the batch's three split trials step together


@pytest.mark.parametrize(
    "params, base_seed, budget",
    [(Params(3, 2, 30), 5, None), (Params(2, 1, 20), 11, None), (Params(2, 1, 20), 11, 512)],
)
def test_hitting_batches_never_mix_trials(monkeypatch, params, base_seed, budget):
    single = [
        run_hitting_time(ExperimentConfig(params=params, trials=1, base_seed=base_seed + t))[0]
        for t in range(40)
    ]
    if budget:  # batches of 4 (2,1,20) trials, so the redraw and the forward steps fall mid-run
        monkeypatch.setattr(components, "_BATCH_RANKS", budget)
    batches = spy_batches(monkeypatch)
    records = run_hitting_time(ExperimentConfig(params=params, trials=40, base_seed=base_seed))
    assert records == single
    assert len(batches) >= 2 and max(trials for trials, _, _ in batches) > 1
    assert all(type(v) is int for rec in records for v in (rec.t_c, rec.t_i))


def test_degree_experiment_shape_and_conservation():
    cfg = ExperimentConfig(
        params=Params(3, 1, 40), s=0, c=0.0, trials=40, base_seed=1
    )
    res = run_degree_experiment(cfg)
    assert res.poisson_rate == 1.0
    assert 0.0 <= res.tv_distance <= 1.0
    assert res.mean_count == pytest.approx(statistics.fmean(res.counts))
    # replaying trial 0's seed reproduces its count
    replay = degree_profile(sample_binomial(cfg.params, res.p, cfg.base_seed))
    assert replay.count(0) == res.counts[0]
    assert sum(replay.counts.values()) == cfg.params.num_jsets


def test_degree_experiment_requires_s_and_c():
    cfg = ExperimentConfig(params=Params(3, 1, 40), trials=2)
    with pytest.raises(ValidationError, match="'s'"):
        run_degree_experiment(cfg)


def test_degree_extreme_c_behaviour():
    # c -> +inf proxy: degree-0 sets vanish; c -> -inf proxy: they abound
    params = Params(3, 1, 80)
    high = run_degree_experiment(
        ExperimentConfig(params=params, s=0, c=6.0, trials=40, base_seed=2)
    )
    assert high.counts.count(0) / len(high.counts) >= 0.9
    low = run_degree_experiment(
        ExperimentConfig(params=params, s=0, c=-4.0, trials=40, base_seed=2)
    )
    assert low.mean_count >= 10.0


def spy_degree_batches(monkeypatch):
    """Record the trial count of every batch ``run_degree_experiment``
    counts, and the rows of every ``jset_rank_array`` call."""
    batches, ranked = [], []
    degree_counts, rank_array = experiments._degree_counts, experiments.jset_rank_array

    def spy_counts(params, batch, s):
        batches.append(len(batch))
        return degree_counts(params, batch, s)

    def spy_rank(*args):
        ranked.append(args[0].shape[0])
        return rank_array(*args)

    monkeypatch.setattr(experiments, "_degree_counts", spy_counts)
    monkeypatch.setattr(experiments, "jset_rank_array", spy_rank)
    monkeypatch.setattr(analysis, "jset_rank_array", spy_rank)  # a per-trial degree_profile would rank here
    return batches, ranked


@pytest.mark.parametrize(
    "params, s, c",
    [(Params(3, 1, 40), 0, 0.0), (Params(3, 2, 20), 1, -2.0), (Params(4, 2, 16), 2, 0.0), (Params(2, 1, 30), 1, 0.0)],
)
def test_degree_batches_never_mix_trials(monkeypatch, params, s, c):
    base, trials = 5, 40
    p = run_degree_experiment(ExperimentConfig(params=params, s=s, c=c, trials=1)).p
    samples = [sample_binomial(params, p, base + t) for t in range(trials)]
    expected = [degree_profile(h).count(s) for h in samples]
    single = [
        run_degree_experiment(ExperimentConfig(params=params, s=s, c=c, trials=1, base_seed=base + t)).counts[0]
        for t in range(trials)
    ]
    assert single == expected
    # one trial per batch, a few (1 to 18 here, by edge count), the whole run
    # in one batch, and pairs when B * C(n, j) may not pass 3 * C(n, j) - 1;
    # each with the kernels (a table budget of 0) and then at _TABLE_RANKS,
    # which admits every case's table but (3,1,40)'s 29,640 entries
    admitted = params.num_ksets * params.jsets_per_edge <= experiments._TABLE_RANKS
    kernel = {}
    shapes = ((1, "one"), (2500, "several"), (10**12, "whole"), (10**12, "pairs"))
    for table, (budget, shape) in product((0, experiments._TABLE_RANKS), shapes):
        monkeypatch.setattr(components, "_BATCH_RANKS", budget)
        monkeypatch.setattr(experiments, "_TABLE_RANKS", table)
        if shape == "pairs":  # stands in for int64, which no instance small enough to run here reaches
            monkeypatch.setattr(experiments, "INT64_MAX", 3 * params.num_jsets - 1)
        batches, ranked = spy_degree_batches(monkeypatch)
        gathered = spy_table(monkeypatch)
        res = run_degree_experiment(ExperimentConfig(params=params, s=s, c=c, trials=trials, base_seed=base))
        monkeypatch.undo()
        assert list(res.counts) == expected
        assert all(type(count) is int for count in res.counts)
        assert sum(batches) == trials
        if shape == "one":
            assert batches == [1] * trials
        elif shape == "several":
            assert len(batches) >= 2 and max(batches) > 1
        elif shape == "whole":
            assert batches == [trials]
        else:
            assert batches == [2] * (trials // 2)
        # one unrank and one j-rank pass per batch, over every edge of its trials
        ends = accumulate(batches)
        edges = [sum(h.m for h in samples[end - size:end]) for end, size in zip(ends, batches)]
        if table and admitted:  # or one table build, then one gather per batch
            assert ranked == [params.num_ksets] and gathered == edges
            assert res == kernel[shape]
        else:
            assert ranked == edges and gathered == []
            kernel[shape] = res


@pytest.mark.parametrize("params", [Params(3, 1, 100), Params(2, 1, 50)])
def test_rows_survive_the_short_trial_redo(monkeypatch, params):
    # a first round of one draw leaves every trial of two or more edges
    # short, so each is redrawn alone from its seed: the records must not move
    degrees = ExperimentConfig(params=params, s=0, c=0.0, trials=30, base_seed=4)
    hitting = ExperimentConfig(params=params, trials=30, base_seed=4)
    expected = (run_degree_experiment(degrees), run_hitting_time(hitting))
    size, batch_draw, short = models._draw_size, models._batch_first_ranks, []

    def spy_batch(total, counts, words):
        draws = batch_draw(total, counts, words)
        short.extend(c for c, d in zip(counts, draws) if d is None)
        return draws

    monkeypatch.setattr(models, "_draw_size", lambda total, kept, count: size(total, kept, count) if kept else 1)
    monkeypatch.setattr(models, "_batch_first_ranks", spy_batch)
    assert (run_degree_experiment(degrees), run_hitting_time(hitting)) == expected
    assert len(short) >= 2 * 30  # every trial of both runs, and hitting's longer prefixes


def test_jset_table_equals_colex_rank_within_its_budgets(monkeypatch):
    for k in range(2, 6):
        for j, n in product(range(1, k), range(k, 13)):
            assert math.comb(n, k) * math.comb(k, j) <= experiments._TABLE_RANKS  # every one is admitted
            table = experiments._jset_table(k, j, n)
            assert table.dtype == np.int16 and table.shape == (math.comb(k, j), math.comb(n, k))
            for r in range(math.comb(n, k)):
                assert table[:, r].tolist() == [colex_rank(s) for s in combinations(colex_unrank(r, k, n), j)]
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 0
    # a batch equals the kernels' at every budget, and the table is built
    # only when its 660 entries fit both _TABLE_RANKS and the cap
    params = Params(3, 2, 12)
    trials = [first_distinct_ranks(random.Random(seed), params.num_ksets, 40) for seed in (1, 2)]
    edges = colex_unrank_array(np.concatenate(trials), params.k, params.n)
    expected = jset_rank_array(edges, params.j, params.n).T + np.repeat([0, params.num_jsets], 40)
    for budget, cap, built in ((660, None, 1), (659, None, 0), (2**14, "659", 0), (2**14, "660", 1)):
        monkeypatch.setattr(experiments, "_TABLE_RANKS", budget)
        if cap:
            monkeypatch.setenv("HYPERPHASE_MAX_JSETS", cap)
        experiments._jset_table.cache_clear()
        ranks = experiments._batch_jset_ranks(params, trials)
        assert experiments._jset_table.cache_info().currsize == built
        assert ranks.dtype == np.int64 and ranks.flags.c_contiguous and np.array_equal(ranks, expected)
        monkeypatch.undo()


def test_tv_to_poisson_degenerate():
    assert tv_to_poisson([0, 0, 0], 0.0) == pytest.approx(0.0)
    assert tv_to_poisson([5, 5], 0.0) == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        tv_to_poisson([], 1.0)


def test_connectivity_probe_directions_and_determinism():
    cfg = ExperimentConfig(
        params=Params(3, 2, 40), omega=3.0, trials=20, base_seed=5
    )
    res = run_connectivity_probe(cfg)
    assert res.below.p < res.above.p
    assert res.below.fraction_isolated >= res.above.fraction_isolated
    assert res.above.fraction_connected >= res.below.fraction_connected
    # a j-connected draw never contains isolated j-sets
    for side in (res.below, res.above):
        for t in side.trials:
            assert not (t.connected and t.has_isolated)
    assert run_connectivity_probe(cfg) == res


def test_connectivity_probe_requires_omega():
    cfg = ExperimentConfig(params=Params(3, 2, 40), trials=2)
    with pytest.raises(ValidationError, match="omega"):
        run_connectivity_probe(cfg)


def test_smoothness_probe_ell_zero_and_reports():
    cfg = ExperimentConfig(
        params=Params(3, 2, 40),
        gamma=0.5,
        trials=8,
        base_seed=4,
        ell_list=(0, 1),
    )
    trials = run_smoothness_probe(cfg)
    assert len(trials) == 8
    for tr in trials:
        if not tr.l1_size:
            continue
        assert tr.reports[0].max_rel_dev == pytest.approx(0.0)
        assert tr.reports[1].expected_per_ellset == tr.l1_size / math.comb(40, 2) * math.comb(40, 1)  # scores all of L1


def test_smoothness_probe_flags_edgeless_draws():
    params = Params(3, 2, 8)
    p = (1 + 0.01) * thresholds(params).p_g
    seed = next(s for s in range(3000) if sample_binomial(params, p, s).m == 0)
    cfg = ExperimentConfig(
        params=params,
        gamma=0.01,
        trials=seed + 1,
        base_seed=0,
        ell_list=(1,),
    )
    trials = run_smoothness_probe(cfg)
    assert trials[seed].l1_size == 0 and trials[seed].reports == {}
    for t, tr in enumerate(trials):  # base seed 0: trial t draws on seed t
        assert (tr.l1_size == 0) == (sample_binomial(params, p, t).m == 0)


def test_smoothness_probe_validation(monkeypatch):
    params = Params(3, 2, 20)
    with pytest.raises(ValidationError, match="gamma"):
        run_smoothness_probe(ExperimentConfig(params=params, trials=1, ell_list=(1,)))
    with pytest.raises(ValidationError, match="ell_list"):
        run_smoothness_probe(
            ExperimentConfig(params=params, gamma=0.5, trials=1)
        )
    # every ell is checked before the first draw: here trial 0 draws no
    # edges, so the scorer, which checks ell too, would never run
    params = Params(3, 2, 8)
    p = 1.01 * thresholds(params).p_g
    assert sample_binomial(params, p, 31).m == 0
    good = ExperimentConfig(params=params, gamma=0.01, trials=1, base_seed=31, ell_list=(1,))
    assert [t.l1_size for t in run_smoothness_probe(good)] == [0]

    def no_draw(*args):
        raise AssertionError("the ell_list must be checked before the first draw")

    monkeypatch.setattr(models, "_draw_binomial_count", no_draw)
    for ell_list in [(7, -3), (1, 2), (-1,)]:
        with pytest.raises(ValidationError, match=r"^ell must satisfy 0 <= ell < j, got ell=(7|2|-1), j=2$"):
            run_smoothness_probe(dataclasses.replace(good, ell_list=ell_list))
    # and so is its guardrail on the scored ell-sets: C(5, 2) = 10 pass a cap
    # of 9, though the one k-set of (5, 4, 5) is no edge on seed 0
    monkeypatch.undo()
    params = Params(5, 4, 5)
    assert sample_binomial(params, 1.01 * thresholds(params).p_g, 0).m == 0
    monkeypatch.setenv("HYPERPHASE_MAX_JSETS", "9")
    monkeypatch.setattr(models, "_draw_binomial_count", no_draw)
    capped = ExperimentConfig(params=params, gamma=0.01, trials=1, base_seed=0, ell_list=(1, 2))
    with pytest.raises(ResourceLimitError, match=r"^ell-sets scored = 10 exceeds the guardrail cap 9 "):
        run_smoothness_probe(capped)
