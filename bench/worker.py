"""One fresh benchmark process: import the CLI, parse the configs, run them.

Started by run.py, one at a time, as

    python3 bench/worker.py '<spec json>'

with spec keys ``src`` (the checkout's ``src`` directory), ``parts`` (a
list of ``{"argv": [...], "config": path}``), ``trace`` (bool) and
``spans`` (path for the span dump, or null).  The CLI runs in-process
through ``hyperphase.cli.cli_dispatch``, with its stdout and stderr
captured in memory.  The worker prints one JSON line: ``setup_done`` (a
``time.perf_counter`` stamp; on Linux that clock is CLOCK_MONOTONIC, shared
with the parent that took the spawn stamp), the calibration seconds before
and after the CLI run, per part the exit code, wall seconds and captured
output, the peak RSS, and in traced mode the span summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import resource
import sys
import time
import traceback
from pathlib import Path


def calibrate() -> float:
    """Seconds for a fixed stdlib kernel of the operations the program's hot
    loops are made of (seeded randrange, tuple keys, dict updates,
    math.comb, small sorts).  Timed right before and right after the CLI
    run, it gives the machine's speed at that moment.  The dict is cleared
    at 4096 keys so the kernel adds nothing to the worker's peak RSS."""
    t0 = time.perf_counter()
    rng = random.Random(12345)
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(50_000):
        r = rng.randrange(1 << 30)
        key = (r % 977, r % 13)
        table[key] = table.get(key, 0) + 1
        acc += math.comb(i % 90 + 10, 3) % 7
        acc += sorted((r % 13, i % 7, i % 5))[0]
        if len(table) > 4096:
            table.clear()
    return time.perf_counter() - t0


def main() -> None:
    spec = json.loads(sys.argv[1])
    src = Path(spec["src"])
    sys.path.insert(0, str(src))
    import hyperphase.cli as cli
    from hyperphase.hgio import parse_config

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"imported {cli.__file__}, not the checkout's {src}")
    for part in spec["parts"]:
        parse_config(Path(part["config"]).read_text(encoding="utf-8"))
    setup_done = time.perf_counter()

    dispatch = cli.cli_dispatch
    recorder = None
    if spec["trace"]:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
        dispatch = recorder.wrap("cli", dispatch)

    calib = [calibrate()]
    parts = []
    for part in spec["parts"]:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = dispatch(part["argv"])
        except Exception:  # a crash fails this part's trials; the run goes on
            code = -1
            err.write(traceback.format_exc())
        wall = time.perf_counter() - t0
        parts.append({"code": code, "wall_s": wall, "stdout": out.getvalue(), "stderr": err.getvalue()[-4000:]})

    calib.append(calibrate())
    result = {
        "setup_done": setup_done,
        "calib_s": calib,
        "parts": parts,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder is not None:
        result["trace"] = recorder.summary()
        if spec.get("spans"):
            recorder.write_spans(spec["spans"])
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
