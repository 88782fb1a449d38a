"""Profiler overhead benchmark: the <5% instrumentation budget.

The critical-path profiler hooks sit on the simulator's hottest paths —
one ``record_exec`` per executed batch/step, one ``record_transfer``
per KV migration, pending-interval reconciliation on every pull-queue
mutation. The design contract (DESIGN §4g) is that enabling them costs
under 5% wall time over an identical traced run: the hooks append plain
tuples behind an ``enabled`` guard and never aggregate inline (this
benchmark and perfbench's ``observed-disagg`` workload measure it).

This benchmark proves the contract on a fixed-seed disaggregated
workload, timing three configurations with min-of-K ``perf_counter``
(min, not mean — scheduling noise only ever adds time):

* **bare** — no tracer, no profiler (the NULL-object fast path);
* **traced** — tracer only, the pre-existing observability cost;
* **profiled** — tracer + profiler hooks; the one-shot
  ``build_profile`` analysis pass is timed separately (it runs once
  after the event queue drains, off the per-event hot path).

It also re-verifies purity: the profiled run's span stream must be
byte-identical to the traced run's, i.e. profiling observed the same
simulation it measured. Results land in ``BENCH_profile.json``; exit
status is nonzero when the overhead budget is blown.

Usage::

    PYTHONPATH=src python benchmarks/bench_profile_overhead.py
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.analysis import build_profile
from repro.models import get_model
from repro.serving import DisaggregatedSystem, simulate_trace
from repro.simulator import InstanceSpec, Profiler, Simulation, Tracer, to_jsonl
from repro.workload import generate_trace, get_dataset

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_profile.json"


def _run_once(args, with_tracer: bool, with_profiler: bool):
    """One full simulation; returns (elapsed_s, spans, result, report)."""
    model = get_model(args.model)
    spec = InstanceSpec(model=model)
    trace = generate_trace(
        get_dataset(args.dataset), rate=args.rate,
        num_requests=args.requests, rng=np.random.default_rng(args.seed),
    )
    # Collect before and disable during the timed region: a GC pass
    # landing inside one run but not another swamps a few-percent
    # comparison on a sub-second workload.
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        sim = Simulation()
        tracer = Tracer() if with_tracer else None
        profiler = Profiler() if with_profiler else None
        system = DisaggregatedSystem(
            sim, spec, spec, num_prefill=args.num_prefill,
            num_decode=args.num_decode, tracer=tracer, profiler=profiler,
        )
        result = simulate_trace(system, trace)
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    report = None
    report_s = 0.0
    if with_profiler:
        # The one-shot report build is timed separately: the <5% budget
        # governs the per-event hooks riding the simulation, not the
        # post-run analysis pass (which runs once, off the hot path).
        t1 = time.perf_counter()
        report = build_profile(
            tracer.spans if tracer else [],
            profiler=profiler,
            sim_time=result.sim_time,
            num_gpus=result.num_gpus,
        )
        report_s = time.perf_counter() - t1
    spans = tracer.spans if tracer else []
    return elapsed, report_s, spans, result, report


def _time_configs(args):
    """Interleaved min-of-K timing of all three configurations.

    Interleaving (bare, traced, profiled per round, rather than K of
    each back to back) spreads frequency/thermal drift evenly across
    the configurations, which matters when the quantity under test is a
    few percent of a sub-second run.
    """
    best = {"bare": float("inf"), "traced": float("inf"),
            "profiled": float("inf")}
    best_report = float("inf")
    artifacts = {}
    for _ in range(args.repeats):
        for name, with_tracer, with_profiler in (
            ("bare", False, False),
            ("traced", True, False),
            ("profiled", True, True),
        ):
            elapsed, report_s, spans, result, report = _run_once(
                args, with_tracer, with_profiler
            )
            best[name] = min(best[name], elapsed)
            if with_profiler:
                best_report = min(best_report, report_s)
            artifacts[name] = (spans, result, report)
    return best, best_report, artifacts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="opt-13b")
    parser.add_argument("--dataset", default="sharegpt")
    parser.add_argument("--rate", type=float, default=4.0)
    parser.add_argument("--requests", type=int, default=500,
                        help="workload size; long enough that scheduler "
                             "noise stays well under the 5%% budget")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--num-prefill", type=int, default=2)
    parser.add_argument("--num-decode", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repetitions; min is reported")
    parser.add_argument("--threshold", type=float, default=0.05,
                        help="max tolerated profiled-vs-traced overhead")
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    args = parser.parse_args(argv)

    best, report_s, artifacts = _time_configs(args)
    bare_s, traced_s, profiled_s = (
        best["bare"], best["traced"], best["profiled"]
    )
    _, bare_result, _ = artifacts["bare"]
    traced_spans, traced_result, _ = artifacts["traced"]
    profiled_spans, profiled_result, report = artifacts["profiled"]

    # Purity re-check: instrumentation observed, never steered.
    assert to_jsonl(traced_spans) == to_jsonl(profiled_spans), (
        "profiled run diverged from traced run — the profiler is not a "
        "pure observer"
    )
    assert (
        bare_result.sim_time == traced_result.sim_time == profiled_result.sim_time
    ), "instrumentation changed virtual time"

    overhead_vs_traced = profiled_s / traced_s - 1.0
    overhead_vs_bare = profiled_s / bare_s - 1.0
    doc = {
        "description": (
            "critical-path profiler overhead: bare vs traced vs "
            "traced+profiled (min-of-K wall time, identical seeded run)"
        ),
        "config": {
            "model": args.model,
            "dataset": args.dataset,
            "rate": args.rate,
            "requests": args.requests,
            "seed": args.seed,
            "num_prefill": args.num_prefill,
            "num_decode": args.num_decode,
            "repeats": args.repeats,
        },
        "bare_s": round(bare_s, 6),
        "traced_s": round(traced_s, 6),
        "profiled_s": round(profiled_s, 6),
        "report_build_s": round(report_s, 6),
        "overhead_vs_traced": round(overhead_vs_traced, 4),
        "overhead_vs_bare": round(overhead_vs_bare, 4),
        "threshold": args.threshold,
        "within_budget": overhead_vs_traced < args.threshold,
        "spans": len(profiled_spans),
        "exec_events": report["summary"]["exec_events"],
        "transfer_events": report["summary"]["transfer_events"],
        "completed": report["summary"]["completed"],
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")

    print(f"bare     {bare_s * 1e3:8.1f} ms")
    print(f"traced   {traced_s * 1e3:8.1f} ms")
    print(f"profiled {profiled_s * 1e3:8.1f} ms  "
          f"({doc['exec_events']} exec events, "
          f"{doc['transfer_events']} transfers)")
    print(f"report build (one-shot, off the hot path): {report_s * 1e3:.1f} ms")
    print(f"profiler overhead vs traced: {overhead_vs_traced:+.1%} "
          f"(budget {args.threshold:.0%})")
    print(f"report written to {args.out}")
    if not doc["within_budget"]:
        print("FAIL: profiler overhead exceeds budget", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
