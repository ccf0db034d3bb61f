"""The package's public names and its records' fields, pinned as literal
lists.

Adding or removing a public name or a record field is an API change;
pinning the lists makes it show up here as a test edit.
"""

import dataclasses
import inspect
from pathlib import Path

import hyperphase
from hyperphase.components import JSetUnionFind
from hyperphase.params import Params

EXPORTS = [
    "ComponentSummary", "ConfigError", "ConnectivityProbeResult", "ConvergenceError",
    "DEFAULT_MAX_JSETS", "DegreeProfile", "DegreeRunResult", "ExperimentConfig",
    "ExplorationRecord", "GWResult", "HittingRecord", "Hypergraph", "JSetUnionFind",
    "MAX_JSETS_ENV", "Params", "ParseError", "ResourceLimitError",
    "SmoothnessReport", "SmoothnessTrial", "Stats", "SweepPoint", "Thresholds",
    "ValidationError", "aggregate", "bfs_explore", "binomial",
    "colex_rank", "colex_unrank", "colex_unrank_array", "component_summary",
    "degree_profile", "degree_regime_p", "gw_survival", "jset_rank_array",
    "largest_component_jsets", "max_jsets_cap", "parse_config", "parse_hypergraph",
    "poisson_limit_rate", "poisson_pmf", "predicted_giant_fraction", "process_stream",
    "regime_advisories", "run_connectivity_probe", "run_degree_experiment",
    "run_hitting_time", "run_phase_sweep", "run_smoothness_probe", "sample_binomial",
    "sample_uniform", "second_round_probability", "smoothness_score", "thresholds",
    "trial_seed", "tv_to_poisson", "validate_subset", "write_csv", "write_hypergraph",
    "write_json",
]

# the union-find's writers, then its four public reads
UNION_FIND = ["apply_edge", "apply_ranks", "find", "largest_component_ranks", "partition", "summary"]

# the fields of each record a library function returns, in declaration order
RECORDS = {
    "ComponentSummary": ["largest", "second", "num_nontrivial", "isolated_count", "is_j_connected"],
    "ConnectivityProbeResult": ["below", "above"],
    "DegreeProfile": ["counts"],
    "DegreeRunResult": ["s", "c", "p", "poisson_rate", "trials", "tv_distance", "mean_count"],
    "ExperimentConfig": ["params", "eps", "gamma", "omega", "s", "c", "trials", "base_seed", "eps_grid",
                         "ell_list", "sample_cap"],
    "ExplorationRecord": ["start", "generations", "exhausted"],
    "GWResult": ["offspring_rate", "batch", "survival", "iterations"],
    "HittingRecord": ["trial", "seed", "t_c", "t_i"],
    "SmoothnessReport": ["expected_per_ellset", "max_rel_dev", "mean_rel_dev", "sampled"],
    "SmoothnessTrial": ["trial", "seed", "l1_size", "reports"],
    "Stats": ["mean", "stddev"],
    "SweepPoint": ["eps", "p", "trials", "largest_fraction", "predicted_fraction"],
    "Thresholds": ["p_g", "p_c"],
}


def test_package_exports():
    # submodules become attributes once imported, so they are not exports
    exported = [n for n, v in vars(hyperphase).items() if not n.startswith("_") and not inspect.ismodule(v)]
    assert sorted(exported) == EXPORTS


def test_union_find_public_attributes():
    assert sorted(n for n in vars(JSetUnionFind) if not n.startswith("_")) == UNION_FIND


def test_union_find_state():
    assert sorted(vars(JSetUnionFind(Params(3, 2, 6)))) == ["_labels", "params"]


def test_record_fields():
    assert {name: [f.name for f in dataclasses.fields(getattr(hyperphase, name))] for name in RECORDS} == RECORDS


def test_experiments_hold_no_sample_rule():
    # generators, their words, rank draws, prefixes and complements live in
    # models; the drivers and the smoothness score hand models seeds and
    # counts and get rank arrays or counts back (never the (count, generator)
    # pair of _binomial_count)
    words = ("random", "Random", "getrandbits", "first_distinct_ranks", "_distinct_ranks", "// 2", "bytes",
             "_round_words", "_binomial_count")
    for module in ("experiments.py", "analysis.py"):
        source = (Path(hyperphase.__file__).parent / module).read_text(encoding="utf-8")
        for word in words:
            assert word not in source, (module, word)
