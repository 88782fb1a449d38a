"""Benchmark entry point: one workload, one seed, one process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload disagg-sharegpt --seed 1 --seconds 10 --trace 0

``--trace 0`` times passes of the workload with no instrumentation and
prints the end-to-end metrics. ``--trace 1`` times bare passes, then
traced passes with every layer's entry points wrapped (see
``layers.py``), and prints the per-layer metrics. Both modes run the
output checks after the timed phase. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See ``README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibrate
from layers import LAYERS, LayerClock, install

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Child processes whose start-to-ready time makes up ``setup_s``.
SETUP_SAMPLES = 5

#: Metric names and units, as declared in BENCHMARK.json.
_SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every input for the self-test",
    )
    parser.add_argument(
        "--setup-only", action="store_true",
        help="import and build the inputs, then exit (one setup_s sample)",
    )
    return parser.parse_args(argv)


def _setup_seconds(args) -> float:
    """Median start-to-ready time of fresh interpreters doing the set-up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", args.workload, "--seed", str(args.seed),
                "--size", args.size, "--setup-only",
            ],
            check=True, stdout=subprocess.DEVNULL,
        )
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _timed_passes(wl, inputs, seconds: float):
    """Repeat the workload's unit until ``seconds`` of it have been timed.

    Returns the per-pass wall times, the calibration kernel's run times
    (before the first pass and after every step of a pass, not counted in
    the pass's time; see ``calibrate.py``), the summaries and the last
    output. Each pass starts from a collected heap and holds no earlier
    output.
    """
    times, summaries, out = [], [], None
    host = calibrate.HostSpeed()
    while not times or sum(times) < seconds:
        out = None
        gc.collect()
        host.begin()
        out = wl.unit(inputs, pause=host.pause)
        host.pause()
        times.append(host.busy_s)
        summaries.append(wl.summarize(inputs, out))
    return times, host.kernel_times, summaries, out


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _layer_metrics(clock, summary) -> "dict[str, float]":
    counts, self_s = clock.counts, clock.self_s
    sim_req = summary.sim_requests
    events = sum(counts[f"{layer}.events"] for layer in LAYERS)
    memo_calls = counts["latency.memo.calls"]
    spans = sum(len(tracer.spans) for tracer in clock.tracers)
    metrics = {
        "events.count": events,
        "events.per_sim_req": events / sim_req,
        "events.loop_self_s": self_s["events"],
        "decode_instance.events": counts["decode_instance.events"],
        "decode_instance.events_per_token": (
            counts["decode_instance.events"] / counts["request.tokens"]
            if counts["request.tokens"] else 0.0
        ),
        "prefill_instance.events": counts["prefill_instance.events"],
        "colocated_instance.events": counts["colocated_instance.events"],
        "transfer.submits": counts["transfer.submits"],
        "kvcache.calls": sum(
            v for k, v in counts.items() if k.startswith("kvcache.")
        ),
        "request.record_token.calls": counts["request.record_token.calls"],
        "request.record_tokens.calls": counts["request.record_tokens.calls"],
        "request.to_record.calls": counts["request.to_record.calls"],
        "request.tokens": counts["request.tokens"],
        "latency.memo.calls": memo_calls,
        "latency.memo.hits": counts["latency.memo.hits"],
        "latency.memo_hit_ratio": (
            counts["latency.memo.hits"] / memo_calls if memo_calls else 0.0
        ),
        "latency.model.calls": counts["latency.model.calls"],
        "scheduling.calls": sum(
            v for k, v in counts.items() if k.startswith("scheduling.")
        ),
        "serving.dispatches": counts["serving.dispatches"],
        "workload.generate_trace.calls": counts["workload.generate_trace.calls"],
        "workload.generate_trace_s": clock.inclusive_s["workload.generate_trace_s"],
        "goodput.trials": counts["goodput.trials"],
        "goodput.trial_ms.p50": _percentile(clock.trial_s, 50) * 1e3,
        "goodput.trial_ms.p99": _percentile(clock.trial_s, 99) * 1e3,
        "goodput.trials_aborted": counts["goodput.trials_aborted"],
        "goodput.trials_truncated": counts["goodput.trials_truncated"],
        "search.fingerprint.calls": counts["search.fingerprint.calls"],
        "search.fingerprint_s": clock.inclusive_s["search.fingerprint_s"],
        "tracing.spans": spans,
        "tracing.spans_per_req": spans / sim_req,
        "profiler.events": sum(
            len(p.exec_events) + len(p.transfer_events) + len(p.pending_events)
            for p in clock.profilers
        ),
        "analysis.build_profile_s": clock.inclusive_s["analysis.build_profile_s"],
        "analysis.slo_attainment_s": clock.inclusive_s["analysis.slo_attainment_s"],
        "sim_requests": sim_req,
        "traced_wall_s": clock.wall_s,
    }
    for layer in LAYERS:
        if layer != "events":
            metrics[f"{layer}.self_s"] = self_s[layer]
    for name in PER_LAYER:
        metrics.setdefault(name, 0)
    metrics.update(summary.layer)
    return metrics


def _is_time(name: str) -> bool:
    """Times are averaged over traced passes; counts must repeat on each."""
    return PER_LAYER[name] in ("s", "ms")


def _traced(wl, inputs, seconds: float):
    """Bare passes, then traced passes.

    Returns the per-layer metrics, the last pass's output and summary, and
    the failures found (a count that did not repeat between passes).
    """
    bare_times, _, _, _ = _timed_passes(wl, inputs, seconds / 2)
    passes, out, summary, failures = [], None, None, []
    while not passes or sum(p["traced_wall_s"] for p in passes) < seconds / 2:
        out = None
        gc.collect()
        clock = LayerClock()
        patches = install(clock)
        try:
            out = clock.run(lambda: wl.unit(inputs))
        finally:
            patches.undo()
        summary = wl.summarize(inputs, out)
        passes.append(_layer_metrics(clock, summary))
    metrics = {}
    for name in PER_LAYER:
        values = [p[name] for p in passes]
        if _is_time(name):
            metrics[name] = statistics.fmean(values)
        else:
            if any(v != values[0] for v in values):
                failures.append(f"per-layer count {name} differs between traced passes")
            metrics[name] = values[0]
    metrics["bare_wall_s"] = statistics.median(bare_times)
    metrics["trace_overhead_x"] = (
        statistics.median(p["traced_wall_s"] for p in passes) / metrics["bare_wall_s"]
    )
    return metrics, out, summary, failures


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: library sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"known: {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.setup_only:
        wl.prepare(args.seed, args.size)
        return 0

    setup_s = _setup_seconds(args) if args.trace == 0 else None
    inputs = wl.prepare(args.seed, args.size)
    if args.trace:
        metrics, out, summary, failures = _traced(wl, inputs, args.seconds)
        attempted, failed = summary.attempted, summary.failed
    else:
        times, kernel_times, summaries, out = _timed_passes(wl, inputs, args.seconds)
        peak_rss = _peak_rss_mib()
        attempted = sum(s.attempted for s in summaries)
        failed = sum(s.failed for s in summaries)
        summary = summaries[-1]
        wall_s = statistics.fmean(times)
        kernel_s = statistics.fmean(kernel_times)
        norm_wall_s = wall_s * calibrate.REFERENCE_S / kernel_s
        print(
            f"{args.workload:16s} mean pass wall time {wall_s!r} s over "
            f"{len(times)} passes; mean kernel time {kernel_s!r} s over "
            f"{len(kernel_times)} runs"
        )
        metrics = {
            "setup_s": setup_s,
            "norm_wall_s": norm_wall_s,
            "norm_req_per_s": summary.sim_requests / norm_wall_s,
            "peak_rss_mb": peak_rss,
            "completed_frac": 1.0 - failed / attempted,
            **summary.sim,
        }
        failures = []
        if any(s.sim != summary.sim for s in summaries):
            failures.append("sim_* outputs differ between passes")
    failures += wl.check(inputs, out)
    wanted = PER_LAYER if args.trace else END_TO_END
    missing = [name for name in wanted if name not in metrics]
    failures += [f"metric {name} was not measured" for name in missing]
    failures += [
        f"metric {name} is not finite"
        for name, value in metrics.items() if not math.isfinite(value)
    ]
    for name in wanted:
        if name in metrics:
            print(f"{args.workload:16s} {name:34s} {metrics[name]!r:>24} {wanted[name]}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in wanted.items() if name in metrics
        },
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
