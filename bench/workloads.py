"""Benchmark workloads: CLI invocations at the acceptance-battery configs.

Each workload is one or more CLI invocations ("parts").  A part's config
file carries no seed; the benchmark's seed reaches the program only as the
CLI's ``--seed`` flag, so trial t of every part runs on seed ``seed + t``.

Trial counts are the benchmark's: one fresh worker process spends 1-2 s in
the CLI on the 2-core reference box at the commit that defined the
benchmark.  The (k, j, n) and regime constants are the acceptance
battery's and must not change, or the numbers stop lining up with the
ROADMAP baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Part:
    """One CLI invocation: ``hyperphase <command> --config <file> --seed S``."""

    name: str
    command: str
    settings: tuple[tuple[str, str], ...]
    key: tuple[str, ...]  # columns that identify one trial's row
    per_trial: int  # rows per trial index (eps points, sides, ell values)

    @property
    def config_text(self) -> str:
        return "".join(f"{k}={v}\n" for k, v in self.settings)

    @property
    def trials(self) -> int:
        return int(dict(self.settings)["trials"])

    @property
    def samples(self) -> int:
        """Trial rows (one sampled hypergraph each) a correct run emits."""
        return self.trials * self.per_trial

    @property
    def num_jsets(self) -> int:
        s = dict(self.settings)
        return math.comb(int(s["n"]), int(s["j"]))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    parts: tuple[Part, ...]

    @property
    def samples(self) -> int:
        return sum(p.samples for p in self.parts)


def _settings(**kw) -> tuple[tuple[str, str], ...]:
    return tuple((k, str(v)) for k, v in kw.items())


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "connprobe-pc",
            "connprobe (3,2,100) omega=3, 4 trials: dense regime at p_c, ~10k/20k edges "
            "per trial side; union-find merging and colex_unrank dominate",
            (
                Part(
                    "connprobe",
                    "connprobe",
                    _settings(k=3, j=2, n=100, omega=3, trials=4),
                    ("side", "trial", "seed"),
                    2,
                ),
            ),
        ),
        Workload(
            "giant-pg",
            "sweep (3,2,150) eps=-0.2,0.2 x20 + smooth gamma=0.3 ell=1 x10: ~2k edges over "
            "11,175 j-sets at p_g; per-trial fixed costs, the only smoothness scoring",
            (
                Part(
                    "sweep",
                    "sweep",
                    _settings(k=3, j=2, n=150, eps_grid="-0.2,0.2", trials=20),
                    ("eps", "trial", "seed"),
                    2,
                ),
                Part(
                    "smooth",
                    "smooth",
                    _settings(k=3, j=2, n=150, gamma=0.3, ell_list=1, trials=10),
                    ("trial", "seed", "ell"),
                    1,
                ),
            ),
        ),
        Workload(
            "hitting-process",
            "hitting (3,2,30) and (2,1,50), 150 trials each: one incremental apply_edge and "
            "connectivity query per streamed edge, no static census",
            (
                Part(
                    "hitting-3-2-30",
                    "hitting",
                    _settings(k=3, j=2, n=30, trials=150),
                    ("trial", "seed"),
                    1,
                ),
                Part(
                    "hitting-2-1-50",
                    "hitting",
                    _settings(k=2, j=1, n=50, trials=150),
                    ("trial", "seed"),
                    1,
                ),
            ),
        ),
        Workload(
            "degrees-sparse",
            "degrees (3,1,100) s=0 c=0, 800 trials: ~150 edges per trial, no components "
            "call; RNG draw, binomial inversion, degree_profile; bypasses every engine change",
            (
                Part(
                    "degrees",
                    "degrees",
                    _settings(k=3, j=1, n=100, s=0, c=0, trials=800),
                    ("trial", "seed"),
                    1,
                ),
            ),
        ),
    )
}


def check_row(part: Part, row: dict[str, str], base_seed: int) -> str | None:
    """Seed-independent invariants of one result row; an error message or None."""
    try:
        trial = int(row["trial"])
        if not 0 <= trial < part.trials:
            return f"trial index {trial} outside [0, {part.trials})"
        if int(row["seed"]) != base_seed + trial:
            return f"seed {row['seed']} != base seed {base_seed} + trial {trial}"
        return _CHECKS[part.command](part, row)
    except (KeyError, ValueError) as exc:
        return f"malformed row {row}: {exc!r}"


def _check_sweep(part: Part, row: dict[str, str]) -> str | None:
    largest, second = int(row["largest"]), int(row["second"])
    if not 0 <= second <= largest <= part.num_jsets:
        return f"need 0 <= second <= largest <= C(n,j), got {second}, {largest}"
    return None


def _check_connprobe(part: Part, row: dict[str, str]) -> str | None:
    if row["side"] not in ("below", "above"):
        return f"unknown side {row['side']!r}"
    if row["is_j_connected"] == "true" and row["has_isolated"] == "true":
        return "j-connected yet has an isolated j-set"
    return None


def _check_hitting(part: Part, row: dict[str, str]) -> str | None:
    t_c, t_i = int(row["T_c"]), int(row["T_i"])
    if not 1 <= t_i <= t_c:
        return f"need 1 <= T_i <= T_c, got T_i={t_i}, T_c={t_c}"
    if row["equal"] != ("true" if t_c == t_i else "false"):
        return f"equal={row['equal']} disagrees with T_c={t_c}, T_i={t_i}"
    return None


def _check_degrees(part: Part, row: dict[str, str]) -> str | None:
    if not 0 <= int(row["count"]) <= part.num_jsets:
        return f"count {row['count']} outside [0, C(n,j)]"
    return None


def _check_smooth(part: Part, row: dict[str, str]) -> str | None:
    if row["flagged"] == "true":
        return None
    size = int(row["l1_size"])
    if not 1 <= size <= part.num_jsets:
        return f"l1_size {size} outside [1, C(n,j)]"
    if not 0.0 <= float(row["mean_rel_dev"]) <= float(row["max_rel_dev"]):
        return "need 0 <= mean_rel_dev <= max_rel_dev"
    return None


_CHECKS = {
    "sweep": _check_sweep,
    "connprobe": _check_connprobe,
    "hitting": _check_hitting,
    "degrees": _check_degrees,
    "smooth": _check_smooth,
}
