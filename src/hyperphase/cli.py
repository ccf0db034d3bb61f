"""Command-line interface.

Subcommands: sample, components, explore, sweep, hitting, degrees,
connprobe, smooth, gw, thresholds.  Exit codes: 0 success, 1 validation
error (including usage errors) or a file that cannot be read or written,
2 resource guardrail, arithmetic overflow or non-convergence.  Experiment
subcommands write one row per trial (CSV by default, JSON with --format
json) and print a short aggregate summary to stderr; single-result
subcommands print a JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .analysis import gw_survival, regime_advisories, thresholds
from .components import bfs_explore, component_summary
from .errors import ConvergenceError, ResourceLimitError, ValidationError
from .experiments import (
    ExperimentConfig,
    run_connectivity_probe,
    run_degree_experiment,
    run_hitting_time,
    run_phase_sweep,
    run_smoothness_probe,
)
from .hgio import parse_config, parse_hypergraph, write_csv, write_hypergraph, write_json
from .models import sample_binomial, sample_uniform


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="experiment config file (key=value lines)")
    common.add_argument("--seed", type=int, help="override the config's base seed")
    common.add_argument("--out", type=Path, help="write output to this file instead of stdout")
    common.add_argument("--format", choices=("csv", "json"), help="table output format")

    parser = argparse.ArgumentParser(
        prog="hyperphase",
        description="j-connectivity in random k-uniform hypergraphs: exact components, "
        "samplers, and Monte Carlo experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", parents=[common], help="sample one hypergraph to a file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--p", type=float, help="binomial model edge probability")
    group.add_argument("--m", type=int, help="uniform model edge count")

    p = sub.add_parser("components", parents=[common], help="component census of a file")
    p.add_argument("file", type=Path)
    p.add_argument("--j", type=int, help="connectivity order (or take j from --config)")

    p = sub.add_parser("explore", parents=[common], help="BFS generations from a j-set")
    p.add_argument("file", type=Path)
    p.add_argument("--start", required=True, help="comma-separated j-set, e.g. 1,2")
    p.add_argument("--max-gens", type=int, default=None, help="cap on expansions")

    sub.add_parser("sweep", parents=[common], help="phase sweep over the eps grid")
    sub.add_parser("hitting", parents=[common], help="process hitting times T_c and T_i")
    sub.add_parser("degrees", parents=[common], help="degree-s count law vs Poisson")
    sub.add_parser("connprobe", parents=[common], help="connectivity on both threshold sides")
    sub.add_parser("smooth", parents=[common], help="smoothness of the largest component")

    p = sub.add_parser("gw", parents=[common], help="branching-approximation survival")
    p.add_argument("--p", type=float, help="edge probability (default: (1+eps)*p_g from config)")

    sub.add_parser("thresholds", parents=[common], help="print p_g and p_c")
    return parser


def cli_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles -h and usage errors itself
        return 0 if exc.code in (0, None) else 1
    try:
        text, notes = _HANDLERS[args.command](args)
        for note in notes:
            print(note, file=sys.stderr)
        if args.out is not None:
            args.out.write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    except (ResourceLimitError, OverflowError, MemoryError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # OSError: a missing or unwritable file
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config is None:
        raise ValidationError(f"'{args.command}' needs --config")
    cfg = parse_config(args.config.read_text(encoding="utf-8"))
    if args.seed is not None:
        cfg = replace(cfg, base_seed=args.seed)
    return cfg


def _render_record(record: dict, args: argparse.Namespace) -> str:
    if args.format == "csv":
        return write_csv(list(record), [list(record.values())])
    return json.dumps(record) + "\n"


def _render_rows(columns: list[str], rows: list[list[object]], args: argparse.Namespace) -> str:
    if args.format == "json":
        return write_json(columns, rows)
    return write_csv(columns, rows)


def _advisory_notes(cfg: ExperimentConfig, eps_values) -> list[str]:
    """Each distinct regime advisory over `eps_values`, at the config's
    gamma, as a note, in first-seen order."""
    notes = [f"advisory: {msg}" for eps in eps_values for msg in regime_advisories(cfg.params, eps, cfg.gamma)]
    return list(dict.fromkeys(notes))


def _cmd_thresholds(args) -> tuple[str, list[str]]:
    cfg = _load_config(args)
    th = thresholds(cfg.params)
    return _render_record({"p_g": th.p_g, "p_c": th.p_c}, args), []


def _cmd_gw(args) -> tuple[str, list[str]]:
    cfg = _load_config(args)
    if args.p is not None:
        p = args.p
    else:
        eps = cfg.require("eps")
        p = (1.0 + eps) * thresholds(cfg.params).p_g
    res = gw_survival(cfg.params, p)
    record = {
        "p": p,
        "offspring_rate": res.offspring_rate,
        "batch": res.batch,
        "mean_offspring": res.batch * res.offspring_rate,
        "survival": res.survival,
        "iterations": res.iterations,
    }
    return _render_record(record, args), []


def _cmd_sample(args) -> tuple[str, list[str]]:
    cfg = _load_config(args)
    seed = cfg.base_seed
    if args.p is None and args.m is None:
        raise ValidationError("'sample' needs --p (binomial model) or --m (uniform model)")
    if args.p is not None:
        h = sample_binomial(cfg.params, args.p, seed)
    else:
        h = sample_uniform(cfg.params, args.m, seed)
    return write_hypergraph(h), [f"sampled m={h.m} edges (seed={seed})"]


def _resolve_j(args) -> int:
    if getattr(args, "j", None) is not None:
        return args.j
    if args.config is not None:
        return _load_config(args).params.j
    raise ValidationError("connectivity order j is required: pass --j or --config")


def _cmd_components(args) -> tuple[str, list[str]]:
    j = _resolve_j(args)
    h = parse_hypergraph(args.file.read_text(encoding="utf-8"), j=j)
    s = component_summary(h)
    record = {
        "k": h.params.k,
        "j": h.params.j,
        "n": h.params.n,
        "m": h.m,
        "largest": s.largest,
        "second": s.second,
        "num_nontrivial": s.num_nontrivial,
        "isolated": s.isolated_count,
        "is_j_connected": s.is_j_connected,
    }
    return _render_record(record, args), []


def _cmd_explore(args) -> tuple[str, list[str]]:
    if args.format == "csv":
        raise ValidationError("'explore' emits nested generations; only json is supported")
    try:
        start = tuple(int(tok) for tok in args.start.split(","))
    except ValueError:
        raise ValidationError(f"--start must be comma-separated integers, got {args.start!r}") from None
    h = parse_hypergraph(args.file.read_text(encoding="utf-8"), j=len(start))
    record_obj = bfs_explore(h, start, args.max_gens)
    record = {
        "start": list(record_obj.start),
        "generations": [[list(s) for s in gen] for gen in record_obj.generations],
        "boundary": [list(s) for s in record_obj.generations[-1]],
        "exhausted": record_obj.exhausted,
    }
    return json.dumps(record, indent=2) + "\n", []


def _cmd_sweep(args) -> tuple[str, list[str]]:
    cfg = _load_config(args)
    points = run_phase_sweep(cfg)
    total = cfg.params.num_jsets
    columns = ["eps", "p", "trial", "seed", "largest", "second",
               "largest_fraction", "second_fraction", "predicted_fraction"]
    rows, notes = [], []
    for pt in points:
        rows.extend(
            [pt.eps, pt.p, row.trial, row.seed, row.largest, row.second,
             row.largest / total, row.second / total, pt.predicted_fraction]
            for row in pt.trials
        )
        stats = pt.largest_fraction
        predicted = "n/a" if pt.predicted_fraction is None else f"{pt.predicted_fraction:.4f}"
        notes.append(
            f"eps={pt.eps:+.4g}: mean |L1|/C(n,j) = {stats.mean:.4f} "
            f"(std {stats.stddev:.4f}, predicted {predicted})"
        )
    return _render_rows(columns, rows, args), notes + _advisory_notes(cfg, cfg.eps_grid)


def _cmd_hitting(args) -> tuple[str, list[str]]:
    cfg = _load_config(args)
    records = run_hitting_time(cfg)
    columns = ["trial", "seed", "T_c", "T_i", "equal"]
    rows = [[r.trial, r.seed, r.t_c, r.t_i, r.t_c == r.t_i] for r in records]
    frac = sum(r.t_c == r.t_i for r in records) / len(records)
    return _render_rows(columns, rows, args), [f"T_c == T_i in {frac:.1%} of {len(records)} runs"]


def _cmd_degrees(args) -> tuple[str, list[str]]:
    cfg = _load_config(args)
    res = run_degree_experiment(cfg)
    columns = ["trial", "seed", "s", "c", "p", "count"]
    rows = [[r.trial, r.seed, res.s, res.c, res.p, r.count] for r in res.trials]
    notes = [
        f"s={res.s} c={res.c}: mean D_s = {res.mean_count:.3f}, "
        f"TV to Poisson({res.poisson_rate:.4f}) = {res.tv_distance:.4f}"
    ]
    return _render_rows(columns, rows, args), notes


def _cmd_connprobe(args) -> tuple[str, list[str]]:
    cfg = _load_config(args)
    res = run_connectivity_probe(cfg)
    columns = ["side", "p", "trial", "seed", "is_j_connected", "has_isolated"]
    rows, notes = [], []
    for side in (res.below, res.above):
        rows.extend([side.label, side.p, r.trial, r.seed, r.connected, r.has_isolated] for r in side.trials)
        notes.append(
            f"{side.label} (p={side.p:.5g}): P(j-connected) = {side.fraction_connected:.2f}, "
            f"P(isolated j-set) = {side.fraction_isolated:.2f}"
        )
    return _render_rows(columns, rows, args), notes


def _cmd_smooth(args) -> tuple[str, list[str]]:
    cfg = _load_config(args)
    trials = run_smoothness_probe(cfg)
    columns = ["trial", "seed", "flagged", "l1_size", "ell", "subset_size",
               "expected_per_ellset", "max_rel_dev", "mean_rel_dev", "sampled"]
    rows = []
    for tr in trials:
        if not tr.l1_size:  # flagged: the draw had no edges
            rows.append([tr.trial, tr.seed, True, 0, None, None, None, None, None, None])
            continue
        rows.extend(
            [tr.trial, tr.seed, False, tr.l1_size, ell, tr.l1_size,
             rep.expected_per_ellset, rep.max_rel_dev, rep.mean_rel_dev, rep.sampled]
            for ell, rep in sorted(tr.reports.items())
        )
    flagged = sum(not tr.l1_size for tr in trials)
    notes = [f"{len(trials)} trials, {flagged} flagged (no edges)"]
    return _render_rows(columns, rows, args), notes + _advisory_notes(cfg, [cfg.eps])


_HANDLERS = {
    "thresholds": _cmd_thresholds,
    "gw": _cmd_gw,
    "sample": _cmd_sample,
    "components": _cmd_components,
    "explore": _cmd_explore,
    "sweep": _cmd_sweep,
    "hitting": _cmd_hitting,
    "degrees": _cmd_degrees,
    "connprobe": _cmd_connprobe,
    "smooth": _cmd_smooth,
}
