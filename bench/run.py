"""hyperphase benchmark: CLI workloads at the acceptance configs.

Run from the root of a checkout:

    python3 bench/run.py --workload connprobe-pc --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all    # every workload, both modes

One run starts fresh worker processes (bench/worker.py) one after another,
never two at once, for ``--seconds``: after the first MIN_WORKERS, a worker
that would end past that (judged by the previous one) is not started.
Each worker imports ``hyperphase.cli`` from the checkout's ``src``, parses
the workload's generated configs, and runs them in-process through
``cli_dispatch`` with ``--seed`` set to the benchmark seed.  Every
result row is checked, per trial, against invariants and against a
reference: the golden rows pinned in bench/golden.json for that seed, or,
for a seed with no pinned rows, the run's first worker (the golden gate is
then reported as unchecked).

``--trace 0`` reports the end-to-end metrics: medians over the workers of
trials per second of CLI time, set-up seconds (spawn until the CLI is
imported and the configs parsed) and peak RSS.  Times are reference
seconds (see CALIB_REF_S); the raw wall-clock figures are printed too.  ``--trace 1`` alternates
untraced and traced workers and reports per-layer metrics from the traced
ones (see bench/tracing.py) plus the tracing overhead.  The last stdout
line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Part, Workload, check_row

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"
WORK_DIR = ".bench_work"  # under the checkout root; gitignored
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009
MIN_WORKERS = 4
BUDGET_S = 165.0  # one run must end within 180 s
# Reported times are reference seconds: wall seconds times the worker's
# machine speed (see worker.calibrate), so runs on a host whose speed
# drifts stay comparable.  The reference is a 100 ms calibration kernel.
CALIB_REF_S = 0.1

END_TO_END = (
    ("trials_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("combinatorics.colex_unrank.calls", "count"),
    ("combinatorics.colex_unrank.s", "s"),
    ("models.sample_binomial.calls", "count"),
    ("models.sample_binomial.s", "s"),
    ("models.sample_binomial.self_s", "s"),
    ("models.sample_binomial.ms_p50", "ms"),
    ("models.sample_binomial.ms_p90", "ms"),
    ("models.edges", "count"),
    ("models.Hypergraph.s", "s"),
    ("models.process_stream.edges", "count"),
    ("models.process_stream.s", "s"),
    ("components.apply_edge.calls", "count"),
    ("components.apply_edge.s", "s"),
    ("components.unions", "count"),
    ("components.union_yield", "ratio"),
    ("components.component_summary.calls", "count"),
    ("components.component_summary.s", "s"),
    ("components.component_summary.ms_p50", "ms"),
    ("components.component_summary.ms_p90", "ms"),
    ("components.summary.s", "s"),
    ("components.largest_component_jsets.s", "s"),
    ("analysis.smoothness_score.s", "s"),
    ("analysis.degree_profile.calls", "count"),
    ("analysis.degree_profile.s", "s"),
    ("hgio.parse_config.s", "s"),
    ("hgio.write_csv.s", "s"),
    ("hgio.write_csv.bytes", "B"),
    ("cli.self_s", "s"),
    ("experiments.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

# metrics that are not statistics of their own span, mapped to the span
# whose boundary they are taken at (None: not a layer)
SPAN_OF = {
    "models.edges": "models.sample_binomial",
    "models.process_stream.edges": "models.process_stream",
    "components.unions": "components.apply_edge",
    "components.union_yield": "components.apply_edge",
    "hgio.write_csv.bytes": "hgio.write_csv",
    "trace.overhead_frac": None,
}


class SetupError(Exception):
    """The checkout cannot run the benchmark at all."""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    try:
        check_checkout(root)
        if args.workload == "all":
            report = run_all(root, args.seed, args.seconds)
        else:
            report = measure(root, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    return 0


def check_checkout(root: Path) -> None:
    if not (root / "src" / "hyperphase" / "cli.py").is_file():
        raise SetupError(f"{root} holds no src/hyperphase/cli.py; run from the root of a checkout")


def run_all(root: Path, seed: int, seconds: float) -> dict:
    """Both modes of every workload; metrics are prefixed with the workload."""
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS.values():
        for trace in (False, True):
            rep = measure(root, workload, seed, seconds, trace)
            out["correct"] = out["correct"] and rep["correct"]
            out["attempted"] += rep["attempted"]
            out["failed"] += rep["failed"]
            for name, metric in rep["metrics"].items():
                out["metrics"][f"{workload.name}.{name}"] = metric
    return out


def measure(root: Path, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    parts = write_configs(root, workload, seed)
    gate = Gate(workload, seed, load_golden().get(workload.name, {}).get(str(seed)))
    spans_path = root / WORK_DIR / workload.name / "spans.tsv"
    plain: list[dict] = []
    traced: list[dict] = []
    problems: list[str] = []
    t_start = time.perf_counter()
    last = 0.0  # duration of the previous worker
    i = 0
    while True:
        elapsed = time.perf_counter() - t_start
        if (elapsed + last > seconds and i >= MIN_WORKERS) or elapsed >= BUDGET_S:
            break
        with_trace = trace and i % 2 == 1
        spec = {
            "src": str(root / "src"),
            "parts": parts,
            "trace": with_trace,
            "spans": str(spans_path) if with_trace and not traced else None,
        }
        result, problem = run_worker(spec, BUDGET_S - elapsed)
        last = time.perf_counter() - t_start - elapsed
        gate.check(result["parts"] if result else None)
        if problem:
            problems.append(problem)
        elif all(p["code"] == 0 for p in result["parts"]):
            (traced if with_trace else plain).append(result)
        else:
            problems.append(next(p["stderr"] for p in result["parts"] if p["code"] != 0))
        i += 1

    print(f"workload {workload.name}  seed {seed}  trace {int(trace)}  "
          f"workers {len(plain)} plain + {len(traced)} traced in {time.perf_counter() - t_start:.1f} s")
    for part in workload.parts:
        print(f"  part {part.name}: hyperphase {part.command} "
              + " ".join(f"{k}={v}" for k, v in part.settings))
    print(f"  {gate.describe()}")
    absent: set[str] = set()
    if trace:
        metrics, absent, repeat_problems = layer_metrics(plain, traced)
        problems.extend(repeat_problems)
    else:
        metrics = end_to_end_metrics(workload, plain)
    for problem in problems[:5]:
        print("  problem: " + problem.strip().replace("\n", "\n    "))
    for name, metric in metrics.items():
        note = "  (absent: layer not reached)" if name in absent else ""
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}{note}")
    correct = gate.failed == 0 and not problems and bool(plain) and (bool(traced) or not trace)
    return {"correct": correct, "attempted": gate.attempted, "failed": gate.failed, "metrics": metrics}


def write_configs(root: Path, workload: Workload, seed: int) -> list[dict]:
    """Write each part's config under the work directory; return the worker's parts spec."""
    out_dir = root / WORK_DIR / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    parts = []
    for part in workload.parts:
        path = out_dir / f"{part.name}.cfg"
        path.write_text(part.config_text, encoding="utf-8")
        argv = [part.command, "--config", str(path), "--seed", str(seed)]
        parts.append({"argv": argv, "config": str(path)})
    return parts


def run_worker(spec: dict, timeout: float) -> tuple[dict | None, str | None]:
    """Run one worker to completion; its result with ``setup_s`` added, or a problem."""
    stamp = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(spec)],
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the worker
        return None, f"worker timed out after {timeout:.0f} s"
    if proc.returncode != 0 or not proc.stdout:
        return None, f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["setup_done"] - stamp
    return result, None


def load_golden() -> dict:
    if not GOLDEN_PATH.is_file():
        return {}
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def parse_rows(text: str) -> list[dict[str, str]]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    return [dict(zip(header, row)) for row in reader]


class Gate:
    """Per-trial correctness of every worker's rows in one run.

    A trial fails when its part raised or exited nonzero, when its row breaks
    an invariant, is duplicated, missing or unexpected, or when a cell
    differs from the reference row with the same key.  Only the reference's
    columns are compared, so a later column added to the output is no
    failure.  The reference is the pinned golden rows when the seed has
    them, otherwise the first worker's rows.
    """

    def __init__(self, workload: Workload, seed: int, golden: dict[str, str] | None):
        self.workload = workload
        self.seed = seed
        self.checked = golden is not None
        self.reference: dict[str, dict[tuple, dict[str, str]]] = {}
        if golden is not None:
            for part in workload.parts:
                self.reference[part.name] = {_key(part, r): r for r in parse_rows(golden[part.name])}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, outputs: list[dict] | None) -> None:
        for index, part in enumerate(self.workload.parts):
            self.attempted += part.samples
            out = outputs[index] if outputs else None
            if out is None or out["code"] != 0:
                self.failed += part.samples
                self.errors.append(f"{part.name}: no output")
                continue
            self.failed += min(part.samples, self._bad_trials(part, out["stdout"]))

    def _bad_trials(self, part: Part, text: str) -> int:
        rows: dict[tuple, dict[str, str]] = {}
        bad: set[tuple] = set()
        for row in parse_rows(text):
            key = _key(part, row)
            error = check_row(part, row, self.seed)
            if error or key in rows:
                bad.add(key)
                self.errors.append(f"{part.name} {key}: {error or 'duplicate row'}")
            rows[key] = row
        reference = self.reference.get(part.name)
        if reference is None:
            self.reference[part.name] = rows
            return len(bad) + max(0, part.samples - len(rows))
        for key, ref_row in reference.items():
            row = rows.get(key)
            if row is None or any(row.get(col) != val for col, val in ref_row.items()):
                bad.add(key)
                self.errors.append(f"{part.name} {key}: differs from reference {ref_row}")
        for key in rows.keys() - reference.keys():
            bad.add(key)
            self.errors.append(f"{part.name} {key}: unexpected row")
        return len(bad)

    def describe(self) -> str:
        where = (
            f"golden rows for seed {self.seed}: checked"
            if self.checked
            else f"golden rows for seed {self.seed}: unchecked (none pinned; "
            "rows checked for invariants and against the run's first worker)"
        )
        frac = self.failed / self.attempted if self.attempted else float("nan")
        text = f"gate: {where}; fail_frac {frac:.4g} ({self.failed} of {self.attempted} trials)"
        for error in self.errors[:3]:
            text += f"\n    {error[:300]}"
        return text


def _key(part: Part, row: dict[str, str]) -> tuple:
    return tuple(row.get(col) for col in part.key)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _speed(worker: dict) -> float:
    """The machine's speed during the worker relative to the reference
    speed: > 1 when the calibration kernel, timed before and after the CLI
    run, ran faster than CALIB_REF_S.  Wall seconds times it gives
    reference seconds."""
    return CALIB_REF_S / statistics.fmean(worker["calib_s"])


def _cli_ref_s(worker: dict) -> float:
    return sum(p["wall_s"] for p in worker["parts"]) * _speed(worker)


def end_to_end_metrics(workload: Workload, workers: list[dict]) -> dict:
    if not workers:  # the run is incorrect; 0 keeps the result line valid JSON
        return {name: _metric(0.0, unit) for name, unit in END_TO_END}
    values = {
        "trials_per_s": [workload.samples / _cli_ref_s(w) for w in workers],
        "setup_s": [w["setup_s"] * _speed(w) for w in workers],
        "peak_rss_mb": [w["peak_rss_kb"] / 1024.0 for w in workers],
        "raw trials per wall s": [workload.samples / sum(p["wall_s"] for p in w["parts"]) for w in workers],
        "raw setup wall s": [w["setup_s"] for w in workers],
        "machine speed": [_speed(w) for w in workers],
    }
    for name, vals in values.items():
        if len(vals) > 1:
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"  per worker {name}: n={len(vals)} min {min(vals):.6g} q1 {q1:.6g} "
                  f"median {med:.6g} q3 {q3:.6g} max {max(vals):.6g}")
    return {name: _metric(statistics.median(values[name]), unit) for name, unit in END_TO_END}


def layer_metrics(plain: list[dict], traced: list[dict]) -> tuple[dict, set[str], list[str]]:
    """Per-layer metrics from the traced workers, the names of those whose
    layer was never entered (reported as 0), and problems: counts must
    repeat exactly from worker to worker."""
    if not traced or not plain:
        zero = {name: _metric(0.0, unit) for name, unit in PER_LAYER}
        return zero, set(), ["no traced worker finished"]
    summaries = [w["trace"] for w in traced]
    speeds = [_speed(w) for w in traced]
    problems = []
    exact = [_exact_counts(s) for s in summaries]
    if any(e != exact[0] for e in exact[1:]):
        problems.append("traced counts differ between workers of one run")
    first = summaries[0]

    def busy(layer: str, field: str) -> float:
        return statistics.median(
            s["layers"].get(layer, {}).get(field, 0.0) * v for s, v in zip(summaries, speeds)
        )

    def percentile(layer: str, q: int) -> float:
        pooled = [d * v for s, v in zip(summaries, speeds) for d in s["samples_ms"].get(layer, [])]
        if len(pooled) < 2:
            return 0.0
        return statistics.quantiles(pooled, n=10, method="inclusive")[q // 10 - 1]

    counts = first["counts"]
    slots = counts.get("components.union_slots", 0)
    derived = {
        "components.union_yield": counts.get("components.unions", 0) / slots if slots else 0.0,
        "trace.overhead_frac": statistics.median(map(_cli_ref_s, traced))
        / statistics.median(map(_cli_ref_s, plain))
        - 1.0,
    }
    metrics = {}
    absent = set()
    for name, unit in PER_LAYER:
        layer, field = name.rsplit(".", 1)
        if name in derived:
            value = derived[name]
        elif name in SPAN_OF:
            value = counts.get(name, 0)
        elif field == "calls":
            value = first["layers"].get(layer, {}).get("calls", 0)
        elif field.startswith("ms_p"):
            value = percentile(layer, int(field[4:]))
        else:
            value = busy(layer, field)
        metrics[name] = _metric(value, unit)
        span = SPAN_OF.get(name, layer)
        if span is not None and first["layers"].get(span, {}).get("calls", 0) == 0:
            absent.add(name)
    return metrics, absent, problems


def _exact_counts(summary: dict) -> dict:
    calls = {name: layer["calls"] for name, layer in summary["layers"].items()}
    return {"calls": calls, "counts": summary["counts"]}


if __name__ == "__main__":
    sys.exit(main())
