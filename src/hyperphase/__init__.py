"""j-connectivity in random k-uniform hypergraphs.

Exact j-component computation over colex-ranked j-sets, seeded random
hypergraph models, closed-form threshold/degree analysis, and deterministic
Monte Carlo experiment drivers.
"""

from .analysis import (
    DegreeProfile,
    GWResult,
    RegimeParams,
    SmoothnessReport,
    Thresholds,
    degree_profile,
    degree_regime_p,
    gw_survival,
    poisson_limit_rate,
    poisson_pmf,
    predicted_giant_fraction,
    regime_advisories,
    smoothness_score,
    thresholds,
)
from .combinatorics import (
    binomial,
    canonical_rows,
    colex_key,
    colex_rank,
    colex_unrank,
    colex_unrank_array,
    jset_rank_array,
    jset_ranks,
    rank_jset,
    sub_jsets,
    unrank_jset,
    validate_subset,
)
from .components import (
    ComponentSummary,
    ExplorationRecord,
    JSetUnionFind,
    bfs_components,
    bfs_explore,
    component_summary,
    largest_component_jsets,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    ParseError,
    ResourceLimitError,
    ValidationError,
)
from .experiments import (
    ConnectivityProbeResult,
    DegreeRunResult,
    ExperimentConfig,
    HittingRecord,
    SmoothnessTrial,
    Stats,
    SweepPoint,
    aggregate,
    run_connectivity_probe,
    run_degree_experiment,
    run_hitting_time,
    run_phase_sweep,
    run_smoothness_probe,
    tv_to_poisson,
)
from .hgio import ResultTable, parse_config, parse_hypergraph, write_csv, write_hypergraph, write_json
from .models import (
    EdgeStream,
    Hypergraph,
    process_stream,
    sample_binomial,
    sample_uniform,
    second_round_probability,
    trial_seed,
)
from .params import DEFAULT_MAX_JSETS, MAX_JSETS_ENV, Params, max_jsets_cap

__version__ = "0.1.0"
