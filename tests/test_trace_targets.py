"""The names the benchmark's traced run rebinds from outside the package.

``bench/tracing.py`` wraps these module bindings and methods with
``setattr``; if one disappears, every traced worker fails at install.
This pins them in the package's own suite, so such a change fails here
first.  Every other module-level import in the package must be read, and
every top-level definition read or exported.
"""

import ast
import inspect
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import hyperphase.cli as cli
import hyperphase.components as components
import hyperphase.experiments as experiments
import hyperphase.models as models
from hyperphase.params import Params

ROOT = Path(__file__).resolve().parents[1]

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


def test_every_module_import_is_read_or_rebound():
    # an import that its module never reads is dead code, unless the tracer
    # rebinds it (a module binding in REBOUND)
    rebound = {(owner.__name__, name) for owner, name in REBOUND if inspect.ismodule(owner)}
    unused = []
    for path in sorted((ROOT / "src" / "hyperphase").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read and (f"hyperphase.{path.stem}", name) not in rebound:
                        unused.append(f"{path.name}: {name}")
    assert unused == []


def test_every_top_level_definition_is_read_or_exported():
    # a top-level def, class or assignment that no other statement of the
    # package reads and __init__ does not export is dead code
    # (__version__ is package metadata)
    statements = [(path.name, node) for path in sorted((ROOT / "src" / "hyperphase").glob("*.py"))
                  for node in ast.parse(path.read_text(encoding="utf-8")).body]
    reads = [Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute))
             for _, node in statements]
    total = sum(reads, Counter())
    exported = {alias.asname or alias.name for module, node in statements
                if module == "__init__.py" and isinstance(node, ast.ImportFrom) for alias in node.names}
    dead = []
    for (module, node), own in zip(statements, reads):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        dead += [f"{module}: {name}" for name in names
                 if total[name] == own[name] and name not in exported and name != "__version__"]
    assert dead == []


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


def test_static_runs_call_the_rebound_census(monkeypatch):
    # the tracer rebinds JSetUnionFind.summary on the class after import: the
    # static driver must look it up on the instance, once per (point, trial)
    calls = []
    summary = components.JSetUnionFind.summary
    monkeypatch.setattr(components.JSetUnionFind, "summary", lambda uf: calls.append(uf) or summary(uf))
    experiments.run_phase_sweep(experiments.ExperimentConfig(Params(3, 2, 10), trials=3, eps_grid=(-0.5, 0.5, 1.0)))
    assert len(calls) == 3 * 3
    cfg = experiments.ExperimentConfig(Params(3, 2, 10), omega=1.0, trials=4)
    experiments.run_connectivity_probe(cfg)
    assert len(calls) == 3 * 3 + 2 * 4


def qualified(owner):
    return owner.__name__ if inspect.ismodule(owner) else f"{owner.__module__}.{owner.__qualname__}"


def test_tracer_replaces_exactly_the_rebound_names():
    # the real installer in a fresh interpreter: every attribute of a
    # hyperphase module or class that it replaces or adds is in REBOUND, and
    # every REBOUND entry is replaced
    script = f"""
import inspect, json, sys
sys.path[:0] = [{str(ROOT / "bench")!r}, {str(ROOT / "src")!r}]
import hyperphase.cli
from tracing import Recorder, install
owners = {{}}
for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "hyperphase"]:
    owners[module.__name__] = module
    for obj in vars(module).values():
        if inspect.isclass(obj) and obj.__module__.split(".")[0] == "hyperphase":
            owners[f"{{obj.__module__}}.{{obj.__qualname__}}"] = obj
before = {{name: dict(vars(owner)) for name, owner in owners.items()}}
install(Recorder())
missing = object()
print(json.dumps([[name, attr] for name, owner in owners.items()
                  for attr, value in vars(owner).items() if before[name].get(attr, missing) is not value]))
"""
    cmd = [sys.executable, "-B", "-c", script]
    run = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    replaced = {tuple(pair) for pair in json.loads(run.stdout)}
    assert replaced == {(qualified(owner), name) for owner, name in REBOUND}


def test_installed_tracer_counts_unions_of_apply_edge():
    # the real installer in a fresh interpreter (it rebinds package-wide);
    # -B keeps bytecode caches out of bench/
    script = f"""
import json, sys
sys.path[:0] = [{str(ROOT / "bench")!r}, {str(ROOT / "src")!r}]
from tracing import Recorder, install
from hyperphase.components import JSetUnionFind
from hyperphase.params import Params
rec = Recorder()
install(rec)
delta = JSetUnionFind(Params(4, 2, 6)).apply_edge((1, 2, 4, 6))
print(json.dumps([delta, rec.counts, rec.summary()["layers"]["components.apply_edge"]["calls"]]))
"""
    cmd = [sys.executable, "-B", "-c", script]
    run = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    delta, counts, calls = json.loads(run.stdout)
    assert delta == 5 and calls == 1  # C(4, 2) = 6 j-sets joined by 5 unions
    assert counts == {"components.unions": 5, "components.union_slots": 5}


def test_installed_tracer_counts_stream_edges_and_unranks():
    # the traced benchmark binds EdgeStream.__next__ and models.colex_unrank:
    # process_stream must return that class and unrank through that name
    script = f"""
import json, sys
from itertools import islice
sys.path[:0] = [{str(ROOT / "bench")!r}, {str(ROOT / "src")!r}]
from tracing import Recorder, install
from hyperphase.models import EdgeStream, process_stream
from hyperphase.params import Params
rec = Recorder()
install(rec)
stream = process_stream(Params(3, 2, 9), 4)
edges = list(islice(stream, 5))
layers = rec.summary()["layers"]
print(json.dumps([type(stream) is EdgeStream, len(edges), rec.counts,
                  layers["models.process_stream"]["calls"], layers["combinatorics.colex_unrank"]["calls"]]))
"""
    cmd = [sys.executable, "-B", "-c", script]
    run = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    is_class, edges, counts, spans, unranks = json.loads(run.stdout)
    assert is_class and edges == 5 and spans == 5
    assert counts == {"models.process_stream.edges": 5}
    assert unranks == 5
