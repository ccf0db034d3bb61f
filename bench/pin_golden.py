"""Pin the golden result rows the benchmark's gate compares against.

    python3 bench/pin_golden.py        # from the root of a checkout

Runs every workload once, untraced, at the default and the held-out seed and
writes each part's CSV output to bench/golden.json.  The rows are the RNG
contract (trial seed = base + t) made concrete: re-pin only in a change that
deliberately versions that contract, or that changes a workload's config.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import DEFAULT_SEED, GOLDEN_PATH, HELD_OUT_SEED, WORKLOADS, Gate, check_checkout, run_worker, write_configs


def main() -> int:
    root = Path.cwd()
    check_checkout(root)
    golden: dict[str, dict[str, dict[str, str]]] = {}
    for workload in WORKLOADS.values():
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            spec = {"src": str(root / "src"), "parts": write_configs(root, workload, seed), "trace": False}
            result, problem = run_worker(spec, 600.0)
            if problem:
                raise SystemExit(f"{workload.name} seed {seed}: {problem}")
            gate = Gate(workload, seed, None)
            gate.check(result["parts"])
            if gate.failed:
                raise SystemExit(f"{workload.name} seed {seed}: {gate.describe()}")
            golden.setdefault(workload.name, {})[str(seed)] = {
                part.name: out["stdout"] for part, out in zip(workload.parts, result["parts"])
            }
            print(f"pinned {workload.name} seed {seed}: {gate.attempted} trials")
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
