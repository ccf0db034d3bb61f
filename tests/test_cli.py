import hashlib
import json
import math
import os
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import hyperphase.analysis
import hyperphase.components
import hyperphase.experiments
import hyperphase.models
from hyperphase.analysis import degree_profile
from hyperphase.cli import _HANDLERS, cli_dispatch
from hyperphase.components import largest_component_jsets
from hyperphase.errors import ResourceLimitError
from hyperphase.experiments import ExperimentConfig, run_degree_experiment
from hyperphase.hgio import parse_config, parse_hypergraph
from hyperphase.models import sample_binomial
from hyperphase.params import Params

TWO_EDGE_FILE = "3 4 2\n1 2 3\n2 3 4\n"


@pytest.fixture
def config_100(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("k=3\nj=2\nn=100\n", encoding="utf-8")
    return path


def run(capsys, argv):
    code = cli_dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_thresholds_json(capsys, config_100):
    code, out, _ = run(capsys, ["thresholds", "--config", str(config_100)])
    assert code == 0
    record = json.loads(out)
    assert record["p_g"] == pytest.approx(0.005)
    assert record["p_c"] == pytest.approx(2 * math.log(100) / 100)
    assert set(record) == {"p_g", "p_c"}


def test_components_two_edge_file(capsys, tmp_path):
    path = tmp_path / "in.hg"
    path.write_text(TWO_EDGE_FILE, encoding="utf-8")
    code, out, _ = run(capsys, ["components", str(path), "--j", "2"])
    assert code == 0
    record = json.loads(out)
    assert record["largest"] == 5
    assert record["second"] == 0
    assert record["isolated"] == 1
    assert record["m"] == 2
    assert record["is_j_connected"] is False


def test_components_j_from_config(capsys, tmp_path, config_100):
    path = tmp_path / "in.hg"
    path.write_text(TWO_EDGE_FILE, encoding="utf-8")
    code, out, _ = run(capsys, ["components", str(path), "--config", str(config_100)])
    assert code == 0 and json.loads(out)["largest"] == 5


def test_components_requires_j(capsys, tmp_path):
    path = tmp_path / "in.hg"
    path.write_text(TWO_EDGE_FILE, encoding="utf-8")
    code, _, err = run(capsys, ["components", str(path)])
    assert code == 1 and "j" in err


def test_sample_is_deterministic(tmp_path, capsys, config_100):
    out1 = tmp_path / "a.hg"
    out2 = tmp_path / "b.hg"
    for out in (out1, out2):
        code = cli_dispatch(
            ["sample", "--config", str(config_100), "--seed", "7", "--p", "0.01",
             "--out", str(out)]
        )
        assert code == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().split("\n")[0].split()
    assert header[0] == "3" and header[1] == "100"


def test_sample_round_trips_through_components(tmp_path, capsys, config_100):
    out = tmp_path / "a.hg"
    assert cli_dispatch(["sample", "--config", str(config_100), "--m", "40", "--out", str(out)]) == 0
    code, text, _ = run(capsys, ["components", str(out), "--j", "2"])
    assert code == 0
    record = json.loads(text)
    assert record["m"] == 40


def test_components_census_blocks_under_the_cap(tmp_path, capsys, monkeypatch):
    # the census ranks a file in blocks that fit the guardrail cap, as the
    # static runs do: 600 (3,2,30) edges hold 1800 j-set ranks, more than a
    # cap of 1500 or 700, while the 435 labels and the edge count fit both
    cfg, path = tmp_path / "c.txt", tmp_path / "a.hg"
    cfg.write_text("k=3\nj=2\nn=30\nseed=1\n", encoding="utf-8")
    assert cli_dispatch(["sample", "--config", str(cfg), "--m", "600", "--out", str(path)]) == 0
    capsys.readouterr()
    code, uncapped, _ = run(capsys, ["components", str(path), "--j", "2"])
    assert code == 0 and json.loads(uncapped)["m"] == 600
    h = parse_hypergraph(path.read_text(encoding="utf-8"), j=2)
    largest = largest_component_jsets(h)
    for cap in (1500, 700):
        monkeypatch.setenv("HYPERPHASE_MAX_JSETS", str(cap))
        assert run(capsys, ["components", str(path), "--j", "2"]) == (0, uncapped, "")
        assert np.array_equal(largest_component_jsets(h), largest)


def test_formula_commands_take_exact_integers(tmp_path, capsys):
    # thresholds and gw allocate nothing, so C(n, k - j) past 2^63 is no fault
    cfg = tmp_path / "c.txt"
    cfg.write_text("k=4\nj=1\nn=10000000\neps=0.5\n", encoding="utf-8")
    assert math.comb(10**7, 3) > 2**63
    code, out, err = run(capsys, ["thresholds", "--config", str(cfg)])
    assert code == 0 and err == ""
    assert json.loads(out) == {"p_g": 2.00000060000014e-21, "p_c": 9.670860291832886e-20}
    code, out, err = run(capsys, ["gw", "--config", str(cfg)])
    record = json.loads(out)
    assert code == 0 and err == "" and record["batch"] == 3
    assert record["mean_offspring"] == pytest.approx(1.5) and 0 < record["survival"] < 1


def test_sample_needs_model_choice(capsys, config_100):
    code, _, err = run(capsys, ["sample", "--config", str(config_100)])
    assert code == 1 and "--p" in err


def test_explore(capsys, tmp_path):
    path = tmp_path / "in.hg"
    path.write_text(TWO_EDGE_FILE, encoding="utf-8")
    code, out, _ = run(capsys, ["explore", str(path), "--start", "1,2"])
    assert code == 0
    record = json.loads(out)
    assert record["start"] == [1, 2]
    assert record["generations"] == [[[1, 2]], [[1, 3], [2, 3]], [[2, 4], [3, 4]]]
    assert record["boundary"] == [[2, 4], [3, 4]]
    assert record["exhausted"] is True


def test_explore_ranks_past_int64(capsys, tmp_path):
    # C(10^5, 5) > 2^63: j-sets holding vertex 99999 or 100000 have ranks no
    # int64 holds, and the start (1, 2, 3, 4, 5) has rank 0
    path = tmp_path / "in.hg"
    path.write_text("6 100000 2\n1 2 3 4 5 99999\n1 2 3 4 99999 100000\n", encoding="utf-8")
    code, out, _ = run(capsys, ["explore", str(path), "--start", "1,2,3,4,5"])
    assert code == 0
    edges = [(1, 2, 3, 4, 5, 99999), (1, 2, 3, 4, 99999, 100000)]
    seen = {(1, 2, 3, 4, 5)}
    generations = [[[1, 2, 3, 4, 5]]]
    for e in edges:  # each edge adds one generation, in colex order
        new = sorted((s for s in combinations(e, 5) if s not in seen), key=lambda s: s[::-1])
        seen.update(new)
        generations.append([list(s) for s in new])
    record = json.loads(out)
    assert record["generations"] == generations and record["exhausted"] is True


def test_explore_rejects_csv(capsys, tmp_path):
    path = tmp_path / "in.hg"
    path.write_text(TWO_EDGE_FILE, encoding="utf-8")
    code, _, err = run(capsys, ["explore", str(path), "--start", "1,2", "--format", "csv"])
    assert code == 1 and "json" in err


def test_sweep_csv_and_determinism(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text("k=3\nj=2\nn=20\ntrials=4\neps_grid=0.5\n", encoding="utf-8")
    code1, out1, err1 = run(capsys, ["sweep", "--config", str(cfg)])
    code2, out2, _ = run(capsys, ["sweep", "--config", str(cfg)])
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().split("\n")
    assert lines[0].startswith("eps,p,trial,seed,largest,second")
    assert len(lines) == 1 + 4
    assert "mean |L1|/C(n,j)" in err1


def test_sweep_json_format(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text("k=3\nj=2\nn=20\ntrials=2\neps_grid=0.5\n", encoding="utf-8")
    code, out, _ = run(capsys, ["sweep", "--config", str(cfg), "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 2 and rows[0]["trial"] == 0 and "seed" in rows[0]


def test_hitting_reports_times(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text("k=3\nj=2\nn=10\ntrials=5\n", encoding="utf-8")
    code, out, err = run(capsys, ["hitting", "--config", str(cfg)])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "trial,seed,T_c,T_i,equal"
    assert len(lines) == 6
    assert "T_c == T_i" in err


def test_degrees_and_summary_note(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text("k=3\nj=1\nn=30\ntrials=5\ns=0\nc=0\n", encoding="utf-8")
    code, out, err = run(capsys, ["degrees", "--config", str(cfg)])
    assert code == 0
    assert out.startswith("trial,seed,s,c,p,count\n")
    assert "TV to Poisson" in err


def test_connprobe(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text("k=3\nj=2\nn=25\ntrials=4\nomega=2\n", encoding="utf-8")
    code, out, err = run(capsys, ["connprobe", "--config", str(cfg)])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "side,p,trial,seed,is_j_connected,has_isolated"
    assert len(lines) == 1 + 8
    assert "below" in err and "above" in err


def test_smooth(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text("k=3\nj=2\nn=30\ntrials=3\ngamma=0.5\nell_list=0,1\n", encoding="utf-8")
    code, out, _ = run(capsys, ["smooth", "--config", str(cfg)])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("trial,seed,flagged,l1_size,ell")


def test_gw_from_config_eps(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text("k=2\nj=1\nn=100\neps=1.0\n", encoding="utf-8")
    code, out, _ = run(capsys, ["gw", "--config", str(cfg)])
    assert code == 0
    record = json.loads(out)
    assert record["mean_offspring"] == pytest.approx(2.0)
    assert record["survival"] == pytest.approx(0.79681213, abs=1e-6)


def test_gw_with_explicit_p(capsys, config_100):
    code, out, _ = run(capsys, ["gw", "--config", str(config_100), "--p", "0.004"])
    assert code == 0
    assert json.loads(out)["offspring_rate"] == pytest.approx(0.4)


def test_seed_override_changes_output(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text("k=3\nj=2\nn=20\ntrials=3\neps_grid=0.5\nseed=1\n", encoding="utf-8")
    _, out_default, _ = run(capsys, ["sweep", "--config", str(cfg)])
    _, out_same, _ = run(capsys, ["sweep", "--config", str(cfg), "--seed", "1"])
    _, out_other, _ = run(capsys, ["sweep", "--config", str(cfg), "--seed", "2"])
    assert out_default == out_same
    assert out_default != out_other


def test_exit_code_usage_errors(capsys):
    assert cli_dispatch(["not-a-command"]) == 1
    capsys.readouterr()
    assert cli_dispatch([]) == 1
    capsys.readouterr()
    assert cli_dispatch(["--help"]) == 0
    capsys.readouterr()
    code, _, err = run(capsys, ["sweep"])  # missing --config
    assert code == 1 and "--config" in err


def test_exit_code_validation_error(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text("k=3\nj=3\nn=10\n", encoding="utf-8")
    code, _, err = run(capsys, ["thresholds", "--config", str(cfg)])
    assert code == 1 and "j must satisfy" in err


def test_exit_code_negative_seed(tmp_path, capsys):
    # random.Random(-3) draws what random.Random(3) does, so trials 0 and 6 would repeat
    cfg = tmp_path / "c.txt"
    cfg.write_text("k=3\nj=2\nn=20\ntrials=7\neps_grid=0.5\n", encoding="utf-8")
    code, out, err = run(capsys, ["sweep", "--config", str(cfg), "--seed", "-3"])
    assert code == 1 and "seed must be >= 0, got -3" in err and out == ""


def test_exit_code_missing_files(tmp_path, capsys, config_100):
    code, out, err = run(capsys, ["sweep", "--config", str(tmp_path / "nonexistent.txt")])
    assert code == 1 and err.startswith("error: ") and "nonexistent.txt" in err and out == ""
    code, out, err = run(capsys, ["components", str(tmp_path / "missing.hg"), "--j", "2"])
    assert code == 1 and err.startswith("error: ") and "missing.hg" in err and out == ""
    code, out, err = run(capsys, ["thresholds", "--config", str(config_100), "--out", str(tmp_path / "no-dir" / "t")])
    assert code == 1 and err.startswith("error: ") and "no-dir" in err and out == ""


def test_exit_code_resource_guardrail(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HYPERPHASE_MAX_JSETS", "5")  # file has C(4,2) = 6 j-sets
    path = tmp_path / "in.hg"
    path.write_text(TWO_EDGE_FILE, encoding="utf-8")
    code, _, err = run(capsys, ["components", str(path), "--j", "2"])
    assert code == 2 and "C(n=4, j=2) = 6 exceeds the guardrail cap 5" in err
    # explore and the formula commands allocate nothing per j-set, so the same cap passes them
    assert run(capsys, ["explore", str(path), "--start", "1,2"])[0] == 0
    cfg = tmp_path / "c.txt"
    cfg.write_text("k=3\nj=2\nn=4\ntrials=1\neps_grid=0.5\n", encoding="utf-8")
    assert run(capsys, ["thresholds", "--config", str(cfg)])[0] == 0
    assert run(capsys, ["gw", "--config", str(cfg), "--p", "0.5"])[0] == 0

    # rank arrays: 435 j-sets fit the cap, and the census merges the sample's
    # 253 edges in blocks of 145 (3 j-set ranks each), but the scorer's rank
    # array over L1's 356 j-sets, 2 ell-subsets each (712 ranks), does not
    smooth = tmp_path / "s.txt"
    smooth.write_text("k=3\nj=2\nn=30\ntrials=1\ngamma=3\nell_list=1\n", encoding="utf-8")
    monkeypatch.setenv("HYPERPHASE_MAX_JSETS", "435")
    code, out, err = run(capsys, ["smooth", "--config", str(smooth)])
    assert code == 2 and "j-set rank count" in err and out == ""
    # scored ell-sets: C(5, 4) = 5 j-sets and 5 ranks fit, C(5, 2) = 10 ell-sets do not
    smooth.write_text("k=5\nj=4\nn=5\ntrials=1\ngamma=19\nell_list=2\n", encoding="utf-8")
    monkeypatch.setenv("HYPERPHASE_MAX_JSETS", "9")
    code, out, err = run(capsys, ["smooth", "--config", str(smooth)])
    assert code == 2 and "ell-sets scored = 10 exceeds the guardrail cap 9" in err and out == ""
    monkeypatch.setenv("HYPERPHASE_MAX_JSETS", "5")

    def no_draw(*args):
        raise AssertionError("the guardrail must refuse before the first draw")

    monkeypatch.setattr(hyperphase.experiments, "sample_binomial", no_draw)
    monkeypatch.setattr(hyperphase.models, "first_distinct_ranks", no_draw)
    monkeypatch.setattr(hyperphase.models, "_round_words", no_draw)  # the batched draws read words here
    code, out, err = run(capsys, ["sweep", "--config", str(cfg)])
    assert code == 2 and "C(n=4, j=2) = 6 exceeds the guardrail cap 5" in err and out == ""
    code, out, err = run(capsys, ["hitting", "--config", str(cfg)])
    assert code == 2 and "C(n=4, j=2) = 6 exceeds the guardrail cap 5" in err and out == ""
    monkeypatch.setenv("HYPERPHASE_MAX_JSETS", "50")  # 30 j-sets fit, ~2030 edges do not
    cfg.write_text("k=3\nj=1\nn=30\n", encoding="utf-8")
    code, out, err = run(capsys, ["sample", "--config", str(cfg), "--p", "0.5"])
    assert code == 2 and "edge count" in err and out == ""
    # the hitting prefix starts at ceil(C(30,3) * (ln C(30,1) + 3) / C(29,2)) = ceil(4060 * 6.401 / 406) = 65 edges
    code, out, err = run(capsys, ["hitting", "--config", str(cfg)])
    assert code == 2 and "edge count m = 65 exceeds the guardrail cap 50" in err and out == ""


def test_hitting_table_keeps_the_guardrail(tmp_path, capsys, monkeypatch):
    # (2,1,50): a trial's first prefix is 173 edges, 346 j-set ranks, and the
    # edge-to-j-set table C(50, 2) * 2 = 2,450 entries.  A cap between the two
    # keeps the kernels and the uncapped records; one below a trial refuses
    # as it did before the table
    path = tmp_path / "c.txt"
    path.write_text("k=2\nj=1\nn=50\ntrials=150\n", encoding="utf-8")
    argv = ["hitting", "--config", str(path), "--seed", "1"]
    code, uncapped, _ = run(capsys, argv)
    assert code == 0 and uncapped

    def no_table(*key):
        raise AssertionError("a table past the cap must not be built")

    monkeypatch.setattr(hyperphase.experiments, "_jset_table", no_table)
    monkeypatch.setenv("HYPERPHASE_MAX_JSETS", "1000")
    assert run(capsys, argv)[:2] == (0, uncapped)
    monkeypatch.setenv("HYPERPHASE_MAX_JSETS", "300")
    assert run(capsys, argv) == (2, "", "error: j-set rank count m * C(k=2, j=1) = 346 exceeds the guardrail cap 300 "
                                        "(override with HYPERPHASE_MAX_JSETS)\n")


def test_degree_batches_keep_the_guardrail(tmp_path, capsys, monkeypatch):
    # degrees batches its trials under min(_BATCH_RANKS, cap) j-set ranks, one
    # trial at least: a cap that fits every trial but not a full batch gives
    # smaller batches and the same records, and one a trial does not fit
    # raises the per-sample error a one-trial run raises
    params = Params(3, 1, 100)
    cfg = ExperimentConfig(params=params, s=0, c=0.0, trials=20, base_seed=1)
    path = tmp_path / "c.txt"
    path.write_text("k=3\nj=1\nn=100\ntrials=20\ns=0\nc=0\n", encoding="utf-8")
    batches = []
    degree_counts = hyperphase.experiments._degree_counts
    monkeypatch.setattr(
        hyperphase.experiments, "_degree_counts", lambda p, b, s: batches.append(len(b)) or degree_counts(p, b, s)
    )
    uncapped = run_degree_experiment(cfg)
    code, out, _ = run(capsys, ["degrees", "--config", str(path)])
    ms = [sample_binomial(params, uncapped.p, row.seed).m for row in uncapped.trials]
    cap = 3 * max(ms)  # C(3, 1) = 3 j-set ranks per edge
    assert code == 0 and cap < hyperphase.components._BATCH_RANKS < 3 * sum(ms)
    monkeypatch.setenv("HYPERPHASE_MAX_JSETS", str(cap))
    del batches[:]
    assert run_degree_experiment(cfg) == uncapped
    assert len(batches) > 2 and sum(batches) == 20 and max(batches) < 20
    assert run(capsys, ["degrees", "--config", str(path)])[:2] == (0, out)
    # below trial 0's edge count, then between its edge count and its j-set rank count
    for cap, what in ((ms[0] - 1, "edge count m"), (max(ms[:2]), "j-set rank count")):
        assert cap < 3 * ms[0]
        monkeypatch.setenv("HYPERPHASE_MAX_JSETS", str(cap))
        with pytest.raises(ResourceLimitError, match=what) as batched:
            run_degree_experiment(cfg)
        with pytest.raises(ResourceLimitError) as one_trial:
            degree_profile(sample_binomial(params, uncapped.p, 1))
        assert str(batched.value) == str(one_trial.value)
        code, out, err = run(capsys, ["degrees", "--config", str(path)])
        assert code == 2 and what in err and out == ""


def test_degree_guardrail_refuses_a_trial_before_drawing_the_next(tmp_path, capsys, monkeypatch):
    # trial 0 has 137 edges, 411 j-set ranks; trial 1 has 172 edges: the run
    # must fail on trial 0's rank count, not on trial 1's edge count
    path = tmp_path / "c.txt"
    path.write_text("k=3\nj=1\nn=100\ntrials=5\ns=0\nc=0\n", encoding="utf-8")
    monkeypatch.setenv("HYPERPHASE_MAX_JSETS", "137")
    code, out, err = run(capsys, ["degrees", "--config", str(path), "--seed", "1"])
    assert code == 2 and out == ""
    assert "j-set rank count m * C(k=3, j=1) = 411 exceeds the guardrail cap 137" in err


def test_sweep_guardrail_checks_points_before_trials(tmp_path, capsys, monkeypatch):
    # at cap 6 the first point's trial 3 (m = 7) and the second point's
    # trial 0 (m = 10) both pass the cap; one sample per (point, trial) in
    # point-major order meets the first of them first, and so must the run
    params = Params(2, 1, 6)
    cfg = ExperimentConfig(params, trials=4, base_seed=432, eps_grid=(0.2, 3.0))
    p_g = hyperphase.analysis.thresholds(params).p_g
    first = [sample_binomial(params, (1 + 0.2) * p_g, 432 + t).m for t in range(4)]
    assert first == [3, 2, 2, 7] and sample_binomial(params, (1 + 3.0) * p_g, 432).m == 10
    monkeypatch.setenv("HYPERPHASE_MAX_JSETS", "6")
    with pytest.raises(ResourceLimitError, match=r"^edge count m = 7 exceeds the guardrail cap 6 "):
        hyperphase.experiments.run_phase_sweep(cfg)
    path = tmp_path / "c.txt"
    path.write_text("k=2\nj=1\nn=6\ntrials=4\neps_grid=0.2,3\n", encoding="utf-8")
    code, out, err = run(capsys, ["sweep", "--config", str(path), "--seed", "432"])
    assert code == 2 and out == "" and "edge count m = 7 exceeds the guardrail cap 6" in err


def test_exit_code_non_convergence(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(hyperphase.analysis, "GW_MAX_ITERATIONS", 3)
    cfg = tmp_path / "c.txt"
    cfg.write_text("k=2\nj=1\nn=100\neps=1.0\n", encoding="utf-8")
    code, out, err = run(capsys, ["gw", "--config", str(cfg)])
    assert code == 2 and err.startswith("error: ") and "did not converge" in err and out == ""


def test_exit_code_overflow(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text("k=40\nj=1\nn=1000000\n", encoding="utf-8")
    code, _, err = run(capsys, ["sample", "--config", str(cfg), "--p", "0.5"])
    assert code == 2 and "exceeds" in err


# argv (with {cfg} and {hg} for the files below), config text, edge-list
# text, and the one stderr line each refusal prints with exit code 1
REFUSALS = {
    "connprobe-omega-0": (["connprobe", "--config", "{cfg}"], "k=3\nj=2\nn=10\nomega=0\n", "",
                          "omega must be positive, got 0.0"),
    "smooth-gamma-0": (["smooth", "--config", "{cfg}"], "k=3\nj=2\nn=10\ngamma=0\n", "",
                       "gamma must be positive, got 0.0"),
    "components-negative-m": (["components", "{hg}", "--j", "2"], "", "3 4 -1\n",
                              "line 1: edge count m must be >= 0, got -1"),
    "components-short-edge": (["components", "{hg}", "--j", "2"], "", "3 4 1\n1 2\n",
                              "line 2: expected 3 vertices, got 2"),
    "explore-bad-start": (["explore", "{hg}", "--start", "1,x"], "", TWO_EDGE_FILE,
                          "--start must be comma-separated integers, got '1,x'"),
    "explore-negative-max-gens": (["explore", "{hg}", "--start", "1,2", "--max-gens", "-1"], "", TWO_EDGE_FILE,
                                  "max_generations must be >= 0, got -1"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals_name_the_fault(case, tmp_path, capsys):
    argv, config, edges, message = REFUSALS[case]
    cfg, hg = tmp_path / "c.txt", tmp_path / "in.hg"
    cfg.write_text(config, encoding="utf-8")
    hg.write_text(edges, encoding="utf-8")
    argv = [a.format(cfg=cfg, hg=hg) for a in argv]
    assert run(capsys, argv) == (1, "", f"error: {message}\n")


def test_thresholds_csv_is_one_row(capsys, config_100):
    code, out, err = run(capsys, ["thresholds", "--config", str(config_100), "--format", "csv"])
    header, row = out.splitlines()
    assert (code, err, header) == (0, "", "p_g,p_c")
    assert [float(x) for x in row.split(",")] == [0.005, 2 * math.log(100) / 100]


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.hg"
    path.write_text("3 4 1\n3 2 1\n", encoding="utf-8")
    code, _, err = run(capsys, ["components", str(path), "--j", "2"])
    assert code == 1 and "line 2" in err


# command, config, the advisory notes it prints, SHA-256 of its stdout.
# Both sweep eps points raise the same two advisories; each is printed once.
ADVISORY_CASES = {
    "sweep": (
        "k=3\nj=2\nn=40\ntrials=2\neps_grid=-0.2,0.2\n",
        [
            "advisory: eps^3 * n^j = 12.8 < 100: sweep regime is marginal",
            "advisory: eps^2 * n^(1-2*delta) = 0.253 < 100: sweep regime is marginal",
        ],
        "2f517f3cf09c4e529d4598f0c9bc8e4c60869b90d95cad898dbc3df3e2b10ca2",
    ),
    "smooth": (
        "k=3\nj=2\nn=30\ntrials=2\ngamma=0.5\nell_list=1\n",
        ["advisory: gamma^3 * n = 3.75 < 100: smoothness regime is marginal"],
        "aaa6a732070e94565f4fe24c0658516f038bb7e03f2229a596e65dda61cfe1e6",
    ),
}


@pytest.mark.parametrize("command", sorted(ADVISORY_CASES))
def test_regime_advisories_become_notes(command, tmp_path):
    # a fresh interpreter: no warning filter of the test run applies
    config, expected, digest = ADVISORY_CASES[command]
    cfg = tmp_path / "c.txt"
    cfg.write_text(config, encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "hyperphase", command, "--config", str(cfg)],
        capture_output=True, text=True, env=env, check=True,
    )
    advisories = [line for line in proc.stderr.splitlines() if "regime is marginal" in line]
    assert advisories == expected
    assert ".py" not in proc.stderr and "RegimeAdvisory" not in proc.stderr  # no warning output
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == digest


# SHA-256 of stdout for each command at a tiny config.  "{cfg}" is the
# config file; "{hg}" is a hypergraph sampled from it with --m 40.  The
# hashes pin the output bytes, so an engine rewrite that changes a single
# row, rank or float digit fails here.  "sample-m" asks for more than half
# of the C(12, 3) = 220 edges, so it takes the complement draw, and
# "sample-p-complement" draws m = 179 of them, a binomial complement;
# "smooth-sampled" has sample_cap < C(30, 1), so it scores a sample.
# "sweep-dense" runs p from 0 to 0.817 of C(6, 2) = 15 k-sets over an
# unsorted grid with a repeat, so its trials grow both a prefix and a
# complement chain (see models._binomial_chains).
GOLDEN_STDOUT = {
    "sample-p": (
        "k=3\nj=2\nn=12\nseed=7\n",
        ["sample", "--config", "{cfg}", "--p", "0.1"],
        "0c86cc8e893b93d4a610afade8bb8472611fe94e40eaa105a02555ba2e6bd2b5",
    ),
    "sample-m": (
        "k=3\nj=2\nn=12\nseed=7\n",
        ["sample", "--config", "{cfg}", "--m", "150"],
        "437065dacf9f1d5b5dcf0e23d91042faed5f360d653317c1706cc0026b81e493",
    ),
    "sample-p-complement": (
        "k=3\nj=2\nn=12\nseed=7\n",
        ["sample", "--config", "{cfg}", "--p", "0.8"],
        "6d3fbe0ec69a7ca539aa057fc7929170c260a13d831575766a8376988b7aee1c",
    ),
    "components": (
        "k=3\nj=2\nn=12\nseed=7\n",
        ["components", "{hg}", "--j", "2"],
        "e9b3f6c12d28493613eb5d45c1ccc072de2352b1250bc07e88007d6f7a3e3410",
    ),
    "explore": (
        "k=3\nj=2\nn=12\nseed=7\n",
        ["explore", "{hg}", "--start", "1,2"],
        "cf47e115004fcd352185c9ebc5ade160b73d0ab58ef34c59759dbaf61b89787f",
    ),
    "sweep": (
        "k=3\nj=2\nn=20\ntrials=3\neps_grid=-0.3,0.5\n",
        ["sweep", "--config", "{cfg}"],
        "d3e76aaffdb9507553c02499d2d1cbdb9602a8ea678e86e1346fb80c18beb32d",
    ),
    "sweep-dense": (
        "k=2\nj=1\nn=6\ntrials=10\neps_grid=3.9,-1,-0.5,1.5,0.5,2.5,1.5\n",
        ["sweep", "--config", "{cfg}"],
        "014a5138d582648fd5471d65d524376d07cf8f1d957716043351f283a22d8b51",
    ),
    "hitting-32": (
        "k=3\nj=2\nn=10\ntrials=3\n",
        ["hitting", "--config", "{cfg}"],
        "8e8837a134d1da06027d42e11d3d83c63e34ed77bde045fe278f2171e0910cee",
    ),
    "hitting-21": (
        "k=2\nj=1\nn=12\ntrials=3\n",
        ["hitting", "--config", "{cfg}"],
        "189283576103bab077df7b4e3dea631fee29874f750b3b040942c216233976b3",
    ),
    "degrees": (
        "k=3\nj=1\nn=30\ntrials=5\ns=0\nc=0\n",
        ["degrees", "--config", "{cfg}"],
        "1da4a4492107838d237260094913a95a9bc2d3aec80113511e1954291d3a4d1c",
    ),
    "degrees-s1-j2": (
        "k=3\nj=2\nn=20\ntrials=5\ns=1\nc=-2\n",
        ["degrees", "--config", "{cfg}"],
        "f99b5b60975b6c84030643261c09ce61c0d467a8ed031f86e985f11cf224f7aa",
    ),
    "connprobe": (
        "k=3\nj=2\nn=15\ntrials=3\nomega=2\n",
        ["connprobe", "--config", "{cfg}"],
        "76f27c0e9e06ef1410cc106f4baba9965f11d70c9365c3c25425b1bacc60637f",
    ),
    "smooth": (
        "k=3\nj=2\nn=30\ntrials=3\ngamma=0.5\nell_list=0,1\n",
        ["smooth", "--config", "{cfg}"],
        "e76a0ebc6a538199db2c0f6b0a86f12cbad5f4db06631e90c927db9985210207",
    ),
    "smooth-sampled": (
        "k=3\nj=2\nn=30\ntrials=2\ngamma=0.5\nell_list=1\nsample_cap=5\n",
        ["smooth", "--config", "{cfg}"],
        "eacce20d7e83e0b18fc1d716895390c7df7e21f09ab6f1eea243d708003fa206",
    ),
    "smooth-flagged": (  # three of the four trials draw no edges
        "k=3\nj=2\nn=4\ntrials=4\ngamma=0.5\nell_list=0,1\n",
        ["smooth", "--config", "{cfg}"],
        "6c4e738cdfc05667a7b712330a8b6a7aa02a75fc121708e9d93f2ddb18ff04fd",
    ),
    "gw": (
        "k=3\nj=2\nn=20\neps=0.5\n",
        ["gw", "--config", "{cfg}"],
        "a6e9fe65302cbfdf18c0c9290416c27dd32efccd3ee082ccec316386b0e4e45d",
    ),
    "thresholds": (
        "k=3\nj=2\nn=20\n",
        ["thresholds", "--config", "{cfg}"],
        "5ca184c7538b6e4991cff395342f59dd340da760e9aa1cdb4bb681ca24d7fb67",
    ),
    "hitting-json": (
        "k=3\nj=2\nn=10\ntrials=3\n",
        ["hitting", "--config", "{cfg}", "--format", "json"],
        "d88b9ece3737021771dd100b0409e4414e1b0f4857914190a1a663611ad01e9c",
    ),
    "hitting-below": (  # T_c > T_i in 3 of the 40 runs
        "k=2\nj=1\nn=20\ntrials=40\nseed=11\n",
        ["hitting", "--config", "{cfg}"],
        "7f22ee5269092f58e7f30212d24ba5d7b5d09fc1233a556ff9b7dd8a2ab07055",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_STDOUT))
def test_golden_stdout_bytes(case, tmp_path, capsys):
    config, argv, digest = GOLDEN_STDOUT[case]
    cfg = tmp_path / "c.txt"
    hg = tmp_path / "h.hg"
    cfg.write_text(config, encoding="utf-8")
    if "{hg}" in argv:  # "sweep-dense" has only 15 k-sets
        assert cli_dispatch(["sample", "--config", str(cfg), "--m", "40", "--out", str(hg)]) == 0
        capsys.readouterr()
    code, out, _ = run(capsys, [arg.format(cfg=cfg, hg=hg) for arg in argv])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


SWEEP_ADVISORY = "advisory: eps^{} = {} < 100: sweep regime is marginal"

# every stderr line of each experiment case above: its notes, then its advisories
GOLDEN_STDERR = {
    "sweep": [
        "eps=-0.3: mean |L1|/C(n,j) = 0.0439 (std 0.0161, predicted n/a)",
        "eps=+0.5: mean |L1|/C(n,j) = 0.2491 (std 0.1377, predicted 0.5000)",
        SWEEP_ADVISORY.format("3 * n^j", "10.8"),
        SWEEP_ADVISORY.format("2 * n^(1-2*delta)", "0.402"),
        SWEEP_ADVISORY.format("3 * n^j", "50"),
        SWEEP_ADVISORY.format("2 * n^(1-2*delta)", "1.12"),
    ],
    "sweep-dense": [
        "eps=+3.9: mean |L1|/C(n,j) = 1.0000 (std 0.0000, predicted 7.8000)",
        "eps=-1: mean |L1|/C(n,j) = 0.0000 (std 0.0000, predicted n/a)",
        "eps=-0.5: mean |L1|/C(n,j) = 0.2167 (std 0.1933, predicted n/a)",
        "eps=+1.5: mean |L1|/C(n,j) = 0.9000 (std 0.0861, predicted 3.0000)",
        "eps=+0.5: mean |L1|/C(n,j) = 0.6167 (std 0.2086, predicted 1.0000)",
        "eps=+2.5: mean |L1|/C(n,j) = 0.9667 (std 0.0703, predicted 5.0000)",
        "eps=+1.5: mean |L1|/C(n,j) = 0.9000 (std 0.0861, predicted 3.0000)",
        SWEEP_ADVISORY.format("2 * n^(1-2*delta)", "37.3"),
        SWEEP_ADVISORY.format("3 * n^j", "6"),
        SWEEP_ADVISORY.format("2 * n^(1-2*delta)", "2.45"),
        SWEEP_ADVISORY.format("3 * n^j", "0.75"),
        SWEEP_ADVISORY.format("2 * n^(1-2*delta)", "0.612"),
        SWEEP_ADVISORY.format("3 * n^j", "20.2"),
        SWEEP_ADVISORY.format("2 * n^(1-2*delta)", "5.51"),
        SWEEP_ADVISORY.format("3 * n^j", "93.8"),
        SWEEP_ADVISORY.format("2 * n^(1-2*delta)", "15.3"),
    ],
    "hitting-32": ["T_c == T_i in 100.0% of 3 runs"],
    "hitting-21": ["T_c == T_i in 100.0% of 3 runs"],
    "hitting-json": ["T_c == T_i in 100.0% of 3 runs"],
    "hitting-below": ["T_c == T_i in 92.5% of 40 runs"],
    "degrees": ["s=0 c=0.0: mean D_s = 1.000, TV to Poisson(1.0000) = 0.2482"],
    "degrees-s1-j2": ["s=1 c=-2.0: mean D_s = 5.800, TV to Poisson(7.3891) = 0.5935"],
    "connprobe": [
        "below (p=0.22774): P(j-connected) = 0.00, P(isolated j-set) = 1.00",
        "above (p=0.49441): P(j-connected) = 1.00, P(isolated j-set) = 0.00",
    ],
    "smooth": ["3 trials, 0 flagged (no edges)", "advisory: gamma^3 * n = 3.75 < 100: smoothness regime is marginal"],
    "smooth-sampled": [
        "2 trials, 0 flagged (no edges)",
        "advisory: gamma^3 * n = 3.75 < 100: smoothness regime is marginal",
    ],
    "smooth-flagged": ["4 trials, 3 flagged (no edges)", "advisory: gamma^3 * n = 0.5 < 100: smoothness regime is marginal"],
}


@pytest.mark.parametrize("case", sorted(GOLDEN_STDERR))
def test_golden_stderr_lines(case, tmp_path, capsys):
    config, argv, _ = GOLDEN_STDOUT[case]
    cfg = tmp_path / "c.txt"
    cfg.write_text(config, encoding="utf-8")
    code, _, err = run(capsys, [arg.format(cfg=cfg) for arg in argv])
    assert code == 0 and err.splitlines() == GOLDEN_STDERR[case]


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.txt"))

# the CSV header each experiment subcommand writes
CONFIG_COLUMNS = {
    "connprobe": "side,p,trial,seed,is_j_connected,has_isolated",
    "degrees": "trial,seed,s,c,p,count",
    "hitting": "trial,seed,T_c,T_i,equal",
    "smooth": "trial,seed,flagged,l1_size,ell,subset_size,expected_per_ellset,max_rel_dev,mean_rel_dev,sampled",
    "sweep": "eps,p,trial,seed,largest,second,largest_fraction,second_fraction,predicted_fraction",
}


def test_configs_parse_and_name_a_subcommand():
    assert CONFIGS
    for path in CONFIGS:
        parse_config(path.read_text(encoding="utf-8"))
        assert path.stem in _HANDLERS, f"{path.name} names no subcommand"


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
def test_configs_run_at_two_trials(path, tmp_path, capsys):
    text, found = re.subn(r"^trials=\d+$", "trials=2", path.read_text(encoding="utf-8"), flags=re.M)
    assert found == 1, f"{path.name} sets no trial count"
    cfg = tmp_path / path.name
    cfg.write_text(text, encoding="utf-8")
    code, out, _ = run(capsys, [path.stem, "--config", str(cfg)])
    header, *rows = out.splitlines()
    assert code == 0 and header == CONFIG_COLUMNS[path.stem]
    trial = header.split(",").index("trial")
    assert rows and {row.split(",")[trial] for row in rows} == {"0", "1"}
