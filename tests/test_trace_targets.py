"""The names the benchmark's traced run rebinds from outside the package.

``bench/tracing.py`` wraps these module bindings and methods with
``setattr``; if one disappears, every traced worker fails at install.
This pins them in the package's own suite, so such a change fails here
first.
"""

import pytest

import hyperphase.cli as cli
import hyperphase.components as components
import hyperphase.experiments as experiments
import hyperphase.models as models
from hyperphase.params import Params

REBOUND = [
    (cli, "run_phase_sweep"),
    (cli, "run_hitting_time"),
    (cli, "run_degree_experiment"),
    (cli, "run_connectivity_probe"),
    (cli, "run_smoothness_probe"),
    (cli, "parse_config"),
    (cli, "write_csv"),
    (experiments, "sample_binomial"),
    (experiments, "component_summary"),
    (experiments, "largest_component_jsets"),
    (experiments, "smoothness_score"),
    (experiments, "degree_profile"),
    (models, "colex_unrank"),
    (components, "colex_unrank"),
    (models.Hypergraph, "__post_init__"),
    (models.EdgeStream, "__next__"),
    (components.JSetUnionFind, "apply_edge"),
    (components.JSetUnionFind, "summary"),
]


@pytest.mark.parametrize("owner,name", REBOUND, ids=[f"{o.__name__}.{n}" for o, n in REBOUND])
def test_traced_rebinding_target_exists(owner, name):
    assert callable(getattr(owner, name))


def test_rebound_post_init_runs_on_every_sample(monkeypatch):
    # the tracer counts samples through Hypergraph.__post_init__ and h.m
    seen = []
    post_init = models.Hypergraph.__post_init__

    def wrapped(h):
        post_init(h)
        seen.append(h.m)

    monkeypatch.setattr(models.Hypergraph, "__post_init__", wrapped)
    h = experiments.sample_binomial(Params(3, 2, 12), 0.3, 4)
    assert seen == [h.m] and h.m == len(h.edges)
