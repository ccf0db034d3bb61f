"""In-memory span tracing for the benchmark's traced run.

The package is not edited: ``install`` rebinds, from outside, the public
names the CLI drivers call (the bindings inside ``hyperphase.cli``,
``hyperphase.experiments``, ``hyperphase.models`` and
``hyperphase.components``, plus three methods on their classes).  Every
wrapped call appends one span -- name, start, end, parent span -- to flat
arrays; counts are taken at the same boundaries.  Nothing is aggregated
until ``summary`` runs after the CLI has returned.  A span's self time is
its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import math
from array import array
from time import perf_counter

# spans whose per-call durations are reported as percentiles: one call
# per sampled hypergraph
PER_SAMPLE = ("models.sample_binomial", "components.component_summary")


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}

    def wrap(self, name, fn, count=None):
        """``fn`` recording one span per call; ``count(counts, args, result)``
        runs after a call that returned."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self._stack
        counts = self.counts

        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per-name calls, busy seconds and self seconds; per-sample
        durations in ms for the PER_SAMPLE names; the counts."""
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        children = [0.0] * len(self.names)
        samples: dict[str, list[float]] = {name: [] for name in PER_SAMPLE}
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        for i in range(len(start)):
            nid = name_of[i]
            d = end[i] - start[i]
            calls[nid] += 1
            busy[nid] += d
            p = parent[i]
            if p >= 0:
                children[name_of[p]] += d
            name = self.names[nid]
            if name in samples:
                samples[name].append(d * 1000.0)
        layers = {
            name: {"calls": calls[i], "s": busy[i], "self_s": busy[i] - children[i]}
            for i, name in enumerate(self.names)
        }
        return {"layers": layers, "samples_ms": samples, "counts": dict(self.counts)}

    def write_spans(self, path) -> None:
        """Dump every span as tab-separated name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name_of[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\t{self.parent[i]}\n"
                )


def _count_edges(counts, args, h) -> None:
    counts["models.edges"] = counts.get("models.edges", 0) + h.m


def _count_stream_edge(counts, args, edge) -> None:
    counts["models.process_stream.edges"] = counts.get("models.process_stream.edges", 0) + 1


def _count_unions(counts, args, delta) -> None:
    uf, edge = args[0], args[1]
    counts["components.unions"] = counts.get("components.unions", 0) + delta
    slots = math.comb(len(edge), uf.params.j) - 1  # most unions one edge can make
    counts["components.union_slots"] = counts.get("components.union_slots", 0) + slots


def _count_csv_bytes(counts, args, text) -> None:
    counts["hgio.write_csv.bytes"] = counts.get("hgio.write_csv.bytes", 0) + len(text.encode())


def install(rec: Recorder) -> None:
    """Rebind the layer entry points of an imported ``hyperphase`` to traced
    wrappers.  The worker calls ``cli.cli_dispatch`` through a "cli" span."""
    import hyperphase.cli as cli
    import hyperphase.components as components
    import hyperphase.experiments as experiments
    import hyperphase.models as models

    for runner in (
        "run_phase_sweep",
        "run_hitting_time",
        "run_degree_experiment",
        "run_connectivity_probe",
        "run_smoothness_probe",
    ):
        setattr(cli, runner, rec.wrap("experiments", getattr(cli, runner)))
    cli.parse_config = rec.wrap("hgio.parse_config", cli.parse_config)
    cli.write_csv = rec.wrap("hgio.write_csv", cli.write_csv, _count_csv_bytes)

    experiments.sample_binomial = rec.wrap(
        "models.sample_binomial", experiments.sample_binomial, _count_edges
    )
    experiments.component_summary = rec.wrap(
        "components.component_summary", experiments.component_summary
    )
    experiments.largest_component_jsets = rec.wrap(
        "components.largest_component_jsets", experiments.largest_component_jsets
    )
    experiments.smoothness_score = rec.wrap("analysis.smoothness_score", experiments.smoothness_score)
    experiments.degree_profile = rec.wrap("analysis.degree_profile", experiments.degree_profile)

    # colex_unrank as bound where edges are built and where L1's members are unranked
    models.colex_unrank = rec.wrap("combinatorics.colex_unrank", models.colex_unrank)
    components.colex_unrank = rec.wrap("combinatorics.colex_unrank", components.colex_unrank)
    models.Hypergraph.__post_init__ = rec.wrap("models.Hypergraph", models.Hypergraph.__post_init__)
    models.EdgeStream.__next__ = rec.wrap(
        "models.process_stream", models.EdgeStream.__next__, _count_stream_edge
    )
    uf = components.JSetUnionFind
    uf.apply_edge = rec.wrap("components.apply_edge", uf.apply_edge, _count_unions)
    uf.summary = rec.wrap("components.summary", uf.summary)
