import math
import statistics

import pytest

from hyperphase import components, experiments
from hyperphase.analysis import RegimeParams, degree_profile, thresholds
from hyperphase.combinatorics import jset_ranks
from hyperphase.components import JSetUnionFind, component_summary
from hyperphase.errors import ValidationError
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
from hyperphase.models import Hypergraph, process_stream, sample_binomial
from hyperphase.params import Params


def test_aggregate_examples():
    s = aggregate([1, 1, 1])
    assert (s.mean, s.stddev) == (1.0, 0.0)
    s = aggregate([0, 2])
    assert s.mean == 1.0 and s.stddev == pytest.approx(math.sqrt(2))
    assert aggregate([1, 2, 3, 4]).median == 2.5
    assert aggregate([5.0]).stddev == 0.0
    with pytest.raises(ValidationError):
        aggregate([])


def test_config_validation():
    params = Params(3, 2, 12)
    with pytest.raises(ValidationError):
        ExperimentConfig(params=params, trials=0)
    with pytest.raises(ValidationError):
        ExperimentConfig(params=params, eps_grid=(0.1, 0.0))
    with pytest.raises(ValidationError):
        ExperimentConfig(params=params, sample_cap=0)
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


def test_sweep_is_deterministic_and_carries_seeds():
    cfg = ExperimentConfig(params=Params(3, 2, 15), trials=5, base_seed=42, eps_grid=(0.5, -0.5))
    a = run_phase_sweep(cfg)
    b = run_phase_sweep(cfg)
    assert a == b
    assert [t.seed for t in a[0].trials] == [42, 43, 44, 45, 46]
    for point in a:
        for t in point.trials:
            assert t.second <= t.largest <= cfg.params.num_jsets


def test_sweep_supercritical_predicted_fraction():
    cfg = ExperimentConfig(params=Params(3, 2, 15), trials=2, eps_grid=(0.3,))
    (point,) = run_phase_sweep(cfg)
    assert point.predicted_fraction == pytest.approx(0.3)


def test_hitting_single_edge_case():
    cfg = ExperimentConfig(params=Params(3, 2, 3), trials=5, base_seed=0)
    for rec in run_hitting_time(cfg):
        assert rec.t_c == rec.t_i == 1 and rec.equal


def test_hitting_invariants():
    cfg = ExperimentConfig(params=Params(3, 2, 12), trials=30, base_seed=7)
    records = run_hitting_time(cfg)
    total_edges = Params(3, 2, 12).num_ksets
    for rec in records:
        assert 1 <= rec.t_i <= rec.t_c <= total_edges
        assert rec.equal == (rec.t_c == rec.t_i)


@pytest.mark.parametrize("params", [Params(3, 2, 10), Params(2, 1, 12)])
def test_hitting_matches_offline_recomputation(params):
    cfg = ExperimentConfig(params=params, trials=10, base_seed=3)
    for rec in run_hitting_time(cfg):
        edges = []
        stream = process_stream(params, rec.seed)
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
            touched.update(jset_ranks(edge, params.j))
            if t_i == 0 and len(touched) == params.num_jsets:
                t_i = step
            if uf.is_j_connected:
                break
        else:
            raise RuntimeError("process exhausted before j-connectivity")
        records.append(HittingRecord(t, seed, step, t_i, step == t_i))
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


def test_hitting_matches_per_edge_walk(monkeypatch):
    prefixes = []
    hitting_times = experiments._hitting_times

    def spy(params, seed, count):
        prefixes.append(hitting_times(params, seed, count))
        return prefixes[-1]

    monkeypatch.setattr(experiments, "_hitting_times", spy)
    gaps = []
    for params in HITTING_BATTERY:
        cfg = ExperimentConfig(params=params, trials=15, base_seed=11)
        records = run_hitting_time(cfg)
        assert records == per_edge_hitting_time(cfg)
        gaps += [r.t_c - r.t_i for r in records]
    assert None in prefixes  # a prefix ended before T_c and was redrawn longer
    assert max(gaps) >= 3  # T_c > T_i + 2 takes the gallop and then the bisection


def test_hitting_ranks_each_prefix_once(monkeypatch):
    prefixes, ranked = [], []
    hitting_times = experiments._hitting_times
    rank_array = experiments.jset_rank_array

    def spy_prefix(params, seed, count):
        prefixes.append(count)
        return hitting_times(params, seed, count)

    def spy_rank(*args):
        ranked.append(args[0].shape[0])
        return rank_array(*args)

    monkeypatch.setattr(experiments, "_hitting_times", spy_prefix)
    monkeypatch.setattr(experiments, "jset_rank_array", spy_rank)
    monkeypatch.setattr(components, "jset_rank_array", spy_rank)  # a component_summary census would rank here
    records = run_hitting_time(ExperimentConfig(params=Params(2, 1, 20), trials=15, base_seed=11))
    assert len(prefixes) > len(records)  # one trial's first prefix was redrawn longer
    assert ranked == prefixes


def test_degree_experiment_shape_and_conservation():
    cfg = ExperimentConfig(
        params=Params(3, 1, 40), regime=RegimeParams(s=0, c=0.0), trials=40, base_seed=1
    )
    res = run_degree_experiment(cfg)
    assert res.s == 0 and res.poisson_rate == pytest.approx(1.0)
    assert abs(sum(res.empirical_pmf.values()) - 1.0) < 1e-12
    assert 0.0 <= res.tv_distance <= 1.0
    assert res.mean_count == pytest.approx(statistics.fmean(t.count for t in res.trials))
    # replaying a recorded trial seed reproduces its count
    first = res.trials[0]
    replay = degree_profile(sample_binomial(cfg.params, res.p, first.seed))
    assert replay.count(res.s) == first.count
    assert sum(replay.counts.values()) == cfg.params.num_jsets


def test_degree_experiment_requires_s_and_c():
    cfg = ExperimentConfig(params=Params(3, 1, 40), trials=2)
    with pytest.raises(ValidationError, match="'s'"):
        run_degree_experiment(cfg)


def test_degree_extreme_c_behaviour():
    # c -> +inf proxy: degree-0 sets vanish; c -> -inf proxy: they abound
    params = Params(3, 1, 80)
    high = run_degree_experiment(
        ExperimentConfig(params=params, regime=RegimeParams(s=0, c=6.0), trials=40, base_seed=2)
    )
    assert sum(t.count == 0 for t in high.trials) / len(high.trials) >= 0.9
    low = run_degree_experiment(
        ExperimentConfig(params=params, regime=RegimeParams(s=0, c=-4.0), trials=40, base_seed=2)
    )
    assert low.mean_count >= 10.0


def test_tv_to_poisson_degenerate():
    assert tv_to_poisson([0, 0, 0], 0.0) == pytest.approx(0.0)
    assert tv_to_poisson([5, 5], 0.0) == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        tv_to_poisson([], 1.0)


def test_connectivity_probe_directions_and_determinism():
    cfg = ExperimentConfig(
        params=Params(3, 2, 40), regime=RegimeParams(omega=3.0), trials=20, base_seed=5
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
        regime=RegimeParams(gamma=0.5),
        trials=8,
        base_seed=4,
        ell_list=(0, 1),
    )
    trials = run_smoothness_probe(cfg)
    assert len(trials) == 8
    for tr in trials:
        if tr.flagged:
            continue
        assert tr.reports[0].max_rel_dev == pytest.approx(0.0)
        assert tr.reports[1].subset_size == tr.l1_size


def test_smoothness_probe_flags_edgeless_draws():
    params = Params(3, 2, 8)
    p = (1 + 0.01) * thresholds(params).p_g
    seed = next(s for s in range(3000) if sample_binomial(params, p, s).m == 0)
    cfg = ExperimentConfig(
        params=params,
        regime=RegimeParams(gamma=0.01),
        trials=seed + 1,
        base_seed=0,
        ell_list=(1,),
    )
    trials = run_smoothness_probe(cfg)
    assert trials[seed].flagged and trials[seed].l1_size == 0 and trials[seed].reports == {}
    for tr in trials:
        assert tr.flagged == (sample_binomial(params, p, tr.seed).m == 0)


def test_smoothness_probe_validation():
    params = Params(3, 2, 20)
    with pytest.raises(ValidationError, match="gamma"):
        run_smoothness_probe(ExperimentConfig(params=params, trials=1, ell_list=(1,)))
    with pytest.raises(ValidationError, match="ell_list"):
        run_smoothness_probe(
            ExperimentConfig(params=params, regime=RegimeParams(gamma=0.5), trials=1)
        )
