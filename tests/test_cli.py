import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperphase.analysis
import hyperphase.experiments
from hyperphase.cli import _HANDLERS, cli_dispatch
from hyperphase.hgio import parse_config

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


def test_exit_code_resource_guardrail(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HYPERPHASE_MAX_JSETS", "5")  # file has C(4,2) = 6 j-sets
    path = tmp_path / "in.hg"
    path.write_text(TWO_EDGE_FILE, encoding="utf-8")
    code, _, err = run(capsys, ["components", str(path), "--j", "2"])
    assert code == 2 and "C(n=4, j=2) = 6 exceeds the guardrail cap 5" in err
    # formula commands allocate nothing per j-set, so the same cap passes them
    cfg = tmp_path / "c.txt"
    cfg.write_text("k=3\nj=2\nn=4\ntrials=1\neps_grid=0.5\n", encoding="utf-8")
    assert run(capsys, ["thresholds", "--config", str(cfg)])[0] == 0
    assert run(capsys, ["gw", "--config", str(cfg), "--p", "0.5"])[0] == 0

    def no_draw(*args):
        raise AssertionError("the guardrail must refuse before the first draw")

    monkeypatch.setattr(hyperphase.experiments, "sample_binomial", no_draw)
    code, out, err = run(capsys, ["sweep", "--config", str(cfg)])
    assert code == 2 and "C(n=4, j=2) = 6 exceeds the guardrail cap 5" in err and out == ""
    monkeypatch.setenv("HYPERPHASE_MAX_JSETS", "50")  # 30 j-sets fit, ~2030 edges do not
    cfg.write_text("k=3\nj=1\nn=30\n", encoding="utf-8")
    code, out, err = run(capsys, ["sample", "--config", str(cfg), "--p", "0.5"])
    assert code == 2 and "edge count" in err and out == ""


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
# of the C(12, 3) = 220 edges, so it takes the complement draw;
# "smooth-sampled" has sample_cap < C(30, 1), so it scores a sample.
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
}


@pytest.mark.parametrize("case", sorted(GOLDEN_STDOUT))
def test_golden_stdout_bytes(case, tmp_path, capsys):
    config, argv, digest = GOLDEN_STDOUT[case]
    cfg = tmp_path / "c.txt"
    hg = tmp_path / "h.hg"
    cfg.write_text(config, encoding="utf-8")
    assert cli_dispatch(["sample", "--config", str(cfg), "--m", "40", "--out", str(hg)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, [arg.format(cfg=cfg, hg=hg) for arg in argv])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.txt"))


def test_configs_parse_and_name_a_subcommand():
    assert CONFIGS
    for path in CONFIGS:
        parse_config(path.read_text(encoding="utf-8"))
        assert path.stem in _HANDLERS, f"{path.name} names no subcommand"
