"""The package's public names, pinned as literal lists.

Adding or removing a public name is an API change; pinning the lists makes
it show up here as a test edit.
"""

import inspect

import hyperphase
from hyperphase.components import JSetUnionFind

EXPORTS = [
    "ComponentSummary", "ConfigError", "ConnectivityProbeResult", "ConvergenceError",
    "DEFAULT_MAX_JSETS", "DegreeProfile", "DegreeRunResult", "ExperimentConfig",
    "ExplorationRecord", "GWResult", "HittingRecord", "Hypergraph", "JSetUnionFind",
    "MAX_JSETS_ENV", "Params", "ParseError", "RegimeParams", "ResourceLimitError",
    "SmoothnessReport", "SmoothnessTrial", "Stats", "SweepPoint", "Thresholds",
    "ValidationError", "aggregate", "bfs_components", "bfs_explore", "binomial",
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


def test_package_exports():
    # submodules become attributes once imported, so they are not exports
    exported = [n for n, v in vars(hyperphase).items() if not n.startswith("_") and not inspect.ismodule(v)]
    assert sorted(exported) == EXPORTS


def test_union_find_public_attributes():
    assert sorted(n for n in vars(JSetUnionFind) if not n.startswith("_")) == UNION_FIND
