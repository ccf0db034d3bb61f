"""Tests of the benchmark itself (not part of the package's suite).

    python3 -m unittest discover -s bench -p 'test_*.py'    # from the checkout root
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run
from workloads import WORKLOADS, Part, Workload

ROOT = Path(__file__).resolve().parent.parent

# every layer the traced run wraps, at sizes that take well under a second
TINY = Workload(
    "tiny",
    "test workload",
    (
        Part("sweep", "sweep", (("k", "3"), ("j", "2"), ("n", "30"), ("eps_grid", "-0.2,0.2"), ("trials", "3")),
             ("eps", "trial", "seed"), 2),
        Part("smooth", "smooth", (("k", "3"), ("j", "2"), ("n", "30"), ("gamma", "0.3"), ("ell_list", "1"),
                                  ("trials", "2")), ("trial", "seed", "ell"), 1),
        Part("hitting", "hitting", (("k", "3"), ("j", "2"), ("n", "12"), ("trials", "3")), ("trial", "seed"), 1),
        Part("degrees", "degrees", (("k", "3"), ("j", "1"), ("n", "30"), ("s", "0"), ("c", "0"), ("trials", "5")),
             ("trial", "seed"), 1),
        Part("connprobe", "connprobe", (("k", "3"), ("j", "2"), ("n", "20"), ("omega", "3"), ("trials", "1")),
             ("side", "trial", "seed"), 2),
    ),
)


def _worker(workload: Workload, seed: int, trace: bool) -> dict:
    spec = {"src": str(ROOT / "src"), "parts": run.write_configs(ROOT, workload, seed), "trace": trace}
    result, problem = run.run_worker(spec, 120.0)
    if problem:
        raise AssertionError(problem)
    return result


class BenchmarkJsonTest(unittest.TestCase):
    def test_names_and_units_match_the_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([(w["name"], w["why"]) for w in spec["workloads"]],
                         [(w.name, w.why) for w in WORKLOADS.values()])
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER))


class GateTest(unittest.TestCase):
    workload = WORKLOADS["hitting-process"]

    def golden(self) -> dict[str, str]:
        return run.load_golden()[self.workload.name][str(run.DEFAULT_SEED)]

    def check(self, outputs: dict[str, str], golden) -> run.Gate:
        gate = run.Gate(self.workload, run.DEFAULT_SEED, golden)
        gate.check([{"code": 0, "stdout": outputs[p.name]} for p in self.workload.parts])
        return gate

    def test_golden_rows_pass(self):
        gate = self.check(self.golden(), self.golden())
        self.assertEqual((gate.attempted, gate.failed), (self.workload.samples, 0))

    def test_added_column_is_not_a_failure(self):
        golden = self.golden()
        widened = {}
        for name, text in golden.items():
            lines = text.splitlines()
            widened[name] = "\n".join([lines[0] + ",m"] + [line + ",7" for line in lines[1:]]) + "\n"
        self.assertEqual(self.check(widened, golden).failed, 0)

    def test_changed_cell_and_missing_row_fail_their_trials(self):
        golden = self.golden()
        first = self.workload.parts[0].name
        lines = golden[first].splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        row[header.index("T_c")] = str(int(row[header.index("T_c")]) + 1)
        row[header.index("equal")] = "false" if row[header.index("T_i")] != row[header.index("T_c")] else "true"
        broken = dict(golden)
        broken[first] = "\n".join([lines[0], ",".join(row)] + lines[3:]) + "\n"  # row 2 dropped
        self.assertEqual(self.check(broken, golden).failed, 2)

    def test_crashed_part_fails_all_its_trials(self):
        gate = run.Gate(self.workload, run.DEFAULT_SEED, None)
        gate.check(None)
        self.assertEqual(gate.failed, self.workload.samples)

    def test_unpinned_seed_compares_against_first_worker(self):
        golden = self.golden()
        gate = self.check(golden, None)
        self.assertFalse(gate.checked)
        self.assertEqual(gate.failed, 0)
        first = self.workload.parts[0].name
        header, row, *rest = golden[first].splitlines()
        cells = row.split(",")
        cells[2] = str(int(cells[2]) + 1)  # T_c of trial 0; T_i <= T_c still holds
        cells[4] = "false"
        changed = dict(golden)
        changed[first] = "\n".join([header, ",".join(cells), *rest]) + "\n"
        gate.check([{"code": 0, "stdout": changed[p.name]} for p in self.workload.parts])
        self.assertEqual(gate.failed, 1)


class WorkerTest(unittest.TestCase):
    def test_traced_counts_repeat_exactly_and_rows_are_unchanged(self):
        plain = _worker(TINY, 5, trace=False)
        traced = [_worker(TINY, 5, trace=True) for _ in range(2)]
        counts = [run._exact_counts(w["trace"]) for w in traced]
        self.assertEqual(counts[0], counts[1])
        calls = counts[0]["calls"]
        for layer in ("combinatorics.colex_unrank", "models.sample_binomial", "models.process_stream",
                      "components.apply_edge", "components.component_summary", "components.summary",
                      "components.largest_component_jsets", "analysis.smoothness_score",
                      "analysis.degree_profile", "hgio.parse_config", "hgio.write_csv", "cli", "experiments"):
            self.assertGreater(calls[layer], 0, layer)
        for key in ("models.edges", "models.process_stream.edges", "components.unions"):
            self.assertGreater(counts[0]["counts"][key], 0, key)
        for w in traced:
            self.assertEqual([p["stdout"] for p in w["parts"]], [p["stdout"] for p in plain["parts"]])

    def test_pinned_seeds_pass_the_gate(self):
        for name in ("giant-pg", "degrees-sparse"):
            workload = WORKLOADS[name]
            for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
                gate = run.Gate(workload, seed, run.load_golden()[name][str(seed)])
                gate.check(_worker(workload, seed, trace=False)["parts"])
                self.assertEqual(gate.failed, 0, gate.describe())

    def test_refuses_a_directory_without_the_program(self):
        bare = ROOT / run.WORK_DIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "degrees-sparse", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
