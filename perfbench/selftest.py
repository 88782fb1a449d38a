"""Tiny-size self-test of the benchmark.

Runs every workload at ``--size tiny`` through ``run.py`` (as separate
processes, exactly as the benchmark is invoked) and checks that:

1. every metric named in ``BENCHMARK.json`` is emitted, with its unit,
   for every workload, in both modes, and the run's checks pass;
2. for one seed, the per-layer counts and the ``sim_*`` outputs repeat
   exactly across runs;
3. another seed changes them (the seed reaches the trace generator);
4. the per-layer self times sum to the traced wall time, within
   ``SELF_TIME_TOLERANCE`` of it.

Usage (from the repository root; about two minutes)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SELF_TIME_TOLERANCE = 1e-9  # relative to the traced wall time


def _run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
            "--size", "tiny",
        ],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise AssertionError(
            f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
            f"{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _deterministic(result: dict, trace: int) -> dict:
    """The values that must repeat for one seed: counts and sim_* outputs."""
    metrics = result["metrics"]
    if trace:
        return {k: v["value"] for k, v in metrics.items() if v["unit"] not in ("s", "ms")
                and k != "trace_overhead_x"}
    return {k: v["value"] for k, v in metrics.items() if k.startswith("sim_")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            first, again, other = (
                _run(workload, seed, trace) for seed in (1, 1, 2)
            )
            label = f"{workload} trace={trace}"
            for result in (first, again, other):
                emitted = {k: v["unit"] for k, v in result["metrics"].items()}
                if emitted != expected[trace]:
                    failures.append(f"{label}: emitted metrics/units differ from BENCHMARK.json")
                if not result["correct"]:
                    failures.append(f"{label}: output check failed")
            if _deterministic(first, trace) != _deterministic(again, trace):
                failures.append(f"{label}: same seed gave different counts/sim outputs")
            if _deterministic(first, trace) == _deterministic(other, trace):
                failures.append(f"{label}: a different seed changed nothing")
            if trace:
                values = {k: v["value"] for k, v in first["metrics"].items()}
                total = math.fsum(v for k, v in values.items() if k.endswith(".self_s"))
                total += values["events.loop_self_s"]
                wall = values["traced_wall_s"]
                if abs(total - wall) > SELF_TIME_TOLERANCE * wall:
                    failures.append(
                        f"{label}: self times sum to {total!r}, traced wall is {wall!r}"
                    )
            print(f"{label}: checked", flush=True)
    for failure in failures:
        print(f"FAIL: {failure}")
    print("self-test passed" if not failures else f"{len(failures)} failures")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
