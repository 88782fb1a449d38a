"""Exact-output gate for perfbench: the committed record CI checks.

``BENCH_perf.json`` holds, for every workload of ``BENCHMARK.json`` at
seed 1, the perfbench outputs that repeat exactly for a seed:
``completed_frac`` and the ``sim_*`` metrics of an untraced run
(``--trace 0``), and every per-layer metric of a traced run
(``--trace 1``) whose unit is not ``s``, ``ms`` or ``ratio``. This script
runs ``perfbench/run.py`` in both modes with ``--seed 1 --seconds 1``
and exits 1 when either run fails one of perfbench's output checks or
any committed value differs at all.

The comparison is exact, not directional: an improvement that nobody
records would let a later regression back to the old value pass. A
change that moves a value on purpose regenerates the workload's entry
with ``--write``, which prints one ``name: committed X -> measured Y``
line for each value it changes, and says why. Wall time is not gated;
one run on a shared runner is noise.

Usage (from the repository root)::

    python3 benchmarks/check_perf.py --workload disagg-sharegpt
    python3 benchmarks/check_perf.py --workload disagg-sharegpt --write
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "BENCH_perf.json"


def spec() -> dict:
    """The benchmark's declaration: workloads, metric names and units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def pinned_names() -> "tuple[list[str], list[str]]":
    """Metrics pinned from the untraced run, and from the traced run."""
    declared = spec()
    return (
        [m["name"] for m in declared["end_to_end"]
         if m["name"] == "completed_frac" or m["name"].startswith("sim_")],
        [m["name"] for m in declared["per_layer"] if m["unit"] not in ("s", "ms", "ratio")],
    )


def run_perfbench(workload: str, trace: int) -> dict:
    """One perfbench run's result: the JSON object on its last output line."""
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace),
        ],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "metrics": {}}  # perfbench said why on stderr


def pinned(untraced: dict, traced: dict) -> dict:
    """The exact-repeat values of one workload's two results."""
    values = {}
    for result, names in zip((untraced, traced), pinned_names()):
        for name in names:
            values[name] = result["metrics"].get(name, {}).get("value")
    return values


def failed_checks(untraced: dict, traced: dict) -> "list[str]":
    """One line for each run that failed perfbench's own output checks."""
    return [
        f"perfbench --trace {mode} failed its output checks"
        for mode, result in enumerate((untraced, traced)) if not result["correct"]
    ]


def changed(committed: dict, fresh: dict) -> "list[tuple[str, object, object]]":
    """``(name, committed value, fresh value)`` for each value that differs."""
    return [
        (name, committed.get(name), fresh.get(name))
        for name in sorted(committed.keys() | fresh.keys())
        if committed.get(name) != fresh.get(name)
    ]


def differences(committed: dict, untraced: dict, traced: dict) -> "list[str]":
    """Why two fresh results fail the gate against ``committed``; empty if they pass."""
    return failed_checks(untraced, traced) + [
        f"{name}: committed {old!r}, measured {new!r}"
        for name, old, new in changed(committed, pinned(untraced, traced))
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec()["workloads"]],
    )
    parser.add_argument(
        "--write", action="store_true",
        help=f"rewrite the workload's entry in {RECORD.name} instead of checking it",
    )
    args = parser.parse_args(argv)
    untraced, traced = run_perfbench(args.workload, 0), run_perfbench(args.workload, 1)
    record = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    if args.write:
        problems = failed_checks(untraced, traced)
        if not problems:
            fresh = pinned(untraced, traced)
            for name, old, new in changed(record.get(args.workload, {}), fresh):
                print(f"{args.workload}: {name}: committed {old!r} -> measured {new!r}")
            record[args.workload] = fresh
            RECORD.write_text(json.dumps(record, indent=2) + "\n")
    elif args.workload not in record:
        problems = [f"{RECORD.name} has no entry; generate it with --write"]
    else:
        problems = differences(record[args.workload], untraced, traced)
    for problem in problems:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    if problems:
        return 1
    count = sum(map(len, pinned_names()))
    print(f"{args.workload}: wrote {count} values to {RECORD.name}" if args.write
          else f"{args.workload}: {count} values match {RECORD.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
