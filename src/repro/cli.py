"""Command-line interface: plan placements, serve traces, inspect models.

Mirrors the operational surface of the original system's tooling::

    python -m repro.cli models
    python -m repro.cli plan --model opt-13b --application chatbot
    python -m repro.cli serve --model opt-13b --rate 3.0 --requests 300
    python -m repro.cli analyze --model opt-66b --input-len 512
    python -m repro.cli trace --model opt-13b --rate 2.0 --requests 100 \
        --out /tmp/trace.json
    python -m repro.cli metrics --model opt-13b --rate 3.0 --requests 300 \
        --prom-out /tmp/metrics.prom
    python -m repro.cli trace --sanitize --model opt-13b --rate 2.0 \
        --requests 100 --out /tmp/trace.json
    python -m repro.cli profile --model opt-13b --rate 2.0 --requests 100 \
        --json-out /tmp/profile.json --html-out /tmp/profile.html
    python -m repro.cli profile --diff /tmp/colocated.json /tmp/disagg.json

Exit codes (shared by every subcommand):

* 0 — success.
* 1 — the run surfaced findings: sanitizer violations under
  ``--sanitize`` (even in lenient mode, where the run completes first).
* 2 — usage errors: unparseable flags, flag values the library rejects
  while building the trace, SLO or system (``--rate 0``, ``--model
  nope``, ``--prefill-tp 3``, ...; one line on stderr, no traceback),
  and unreadable input files.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys

import numpy as np

from .analysis import (
    PHASES,
    build_profile,
    critical_paths,
    diff_profiles,
    format_profile,
    format_profile_diff,
    format_series,
    latency_summary,
    phase_utilization,
    profile_to_html,
    profile_to_json,
    slo_attainment,
    write_metrics_json,
    write_prometheus_text,
)
from .core import PlacementSearchStats, place_high_affinity, place_low_affinity
from .hardware import get_gpu, paper_testbed
from .latency import (
    ParallelismConfig,
    coefficients_from_roofline,
    intra_op_speedup,
    prefill_times,
    saturation_length,
)
from .models import get_model, list_models
from .scheduling import (
    BATCH_POLICIES,
    DISPATCH_POLICIES,
    QUEUE_POLICIES,
    SchedulingConfig,
    dispatch_rng,
)
from .serving import ColocatedSystem, DisaggregatedSystem, SimulationResult, simulate_trace
from .simulator import (
    InstanceSpec,
    MetricsRegistry,
    Profiler,
    SimSanitizer,
    Simulation,
    SloMonitor,
    Tracer,
    write_chrome_trace,
    write_jsonl,
)
from .workload import SLO, Trace, generate_trace, get_dataset, get_workload

__all__ = ["main", "EXIT_OK", "EXIT_FINDINGS", "EXIT_USAGE"]

#: Exit-code semantics, documented in ``--help`` (see module docstring).
EXIT_OK = 0
#: Findings were collected: sanitizer violations (lenient ``--sanitize``
#: runs complete, then still exit nonzero).
EXIT_FINDINGS = 1
#: Usage errors (argparse also uses 2 for unparseable flags).
EXIT_USAGE = 2

#: What the library raises for a flag value it rejects while the trace,
#: SLO and system are built. Only that set-up is guarded: an error the
#: simulation itself raises is a bug and keeps its traceback.
_BAD_VALUE = (ValueError, KeyError)


def _usage_error(args: argparse.Namespace, exc: Exception) -> int:
    """Report a flag value the library rejected, in one line; exit 2."""
    message = exc.args[0] if exc.args else exc
    print(f"repro {args.command}: {message}", file=sys.stderr)
    return EXIT_USAGE


def _cmd_models(_args: argparse.Namespace) -> int:
    for name in list_models():
        model = get_model(name)
        print(f"{name:12s} {model.num_params / 1e9:7.1f}B params  "
              f"{model.weight_bytes / 1e9:7.1f} GB fp16  "
              f"{model.num_layers:3d} layers  h={model.hidden_size}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    try:
        workload = get_workload(args.application, args.model)
        model = get_model(args.model)
        dataset = get_dataset(workload.dataset_name)
        cluster = paper_testbed()
        if not (math.isfinite(args.traffic) and args.traffic >= 0):
            raise ValueError(f"--traffic must be a finite rate >= 0, "
                             f"got {args.traffic}")
    except _BAD_VALUE as exc:
        return _usage_error(args, exc)
    stats = PlacementSearchStats()
    search = place_high_affinity if args.high_affinity else place_low_affinity
    kwargs = {} if args.high_affinity else {"joint_sim_candidates": args.candidates}
    placement = search(
        model, cluster, dataset, workload.slo,
        traffic_rate=args.traffic or None,
        num_requests=args.trial_requests,
        stats=stats,
        workers=args.workers,
        fast_kernel=not args.no_fast_kernel,
        scheduling=_scheduling_from_args(args),
        **kwargs,
    )
    print(placement.describe())
    print(f"(searched {stats.configs_evaluated} configs, "
          f"{stats.simulation_trials} simulation trials)")
    if args.search_stats:
        print(f"search wall time: {stats.wall_time_s:.2f}s "
              f"({stats.workers} worker{'s' if stats.workers != 1 else ''})")
        print(f"trial cache: {stats.cache_hits} hits / "
              f"{stats.cache_misses} misses ({stats.cache_hit_rate:.1%} hit rate)")
        print(f"pruned {stats.configs_pruned} config simulations; "
              f"{stats.trials_aborted} trials early-aborted, "
              f"{stats.trials_truncated} truncated")
    return 0


def _rejected(result: SimulationResult) -> str:
    """The first output line's rejection count; empty when none was rejected."""
    return f", {result.rejected} rejected" if result.rejected else ""


def _cmd_serve(args: argparse.Namespace) -> int:
    try:
        system = _build_system(args, Simulation())
        trace = _trace_from_args(args)
        slo = SLO(ttft=args.ttft, tpot=args.tpot) if args.ttft and args.tpot else None
    except _BAD_VALUE as exc:
        return _usage_error(args, exc)
    result = simulate_trace(system, trace)
    print(f"{result.completed}/{len(trace)} requests on {result.num_gpus} GPUs "
          f"in {result.sim_time:.1f}s simulated{_rejected(result)}")
    summary = latency_summary(result.records)
    print(f"TTFT p50/p90/p99: {summary['ttft_p50']:.3f} / "
          f"{summary['ttft_p90']:.3f} / {summary['ttft_p99']:.3f} s")
    print(f"TPOT p50/p90/p99: {summary['tpot_p50']:.4f} / "
          f"{summary['tpot_p90']:.4f} / {summary['tpot_p99']:.4f} s")
    if slo is not None:
        report = slo_attainment(result.records, slo, num_expected=len(trace))
        print(f"SLO attainment: {report.total:.1%}")
    return 0


def _scheduling_from_args(args: argparse.Namespace) -> SchedulingConfig:
    """The policy triple selected by the shared scheduling flags."""
    return SchedulingConfig(
        queue_policy=args.queue_policy,
        batch_policy=args.batch_policy,
        dispatch_policy=args.dispatch_policy,
    )


def _make_sim(args: argparse.Namespace) -> "tuple[Simulation, SimSanitizer | None]":
    """A fresh simulation, sanitized when ``--sanitize`` was passed.

    Lenient (collecting) mode: the run completes and every violation is
    reported at the end, turning the exit code nonzero.
    """
    if getattr(args, "sanitize", False):
        sanitizer = SimSanitizer(strict=False)
        return sanitizer.simulation(), sanitizer
    return Simulation(), None


def _finish_sanitize(sanitizer: "SimSanitizer | None") -> int:
    """Quiesce checks + report; returns the exit status contribution.

    Lenient (collecting) sanitizer runs complete before reporting, but
    any collected violation still turns the exit code to
    :data:`EXIT_FINDINGS` — a "passing" run means a *clean* run.
    """
    if sanitizer is None:
        return EXIT_OK
    sanitizer.check_quiesce()
    print(sanitizer.report())
    return EXIT_OK if sanitizer.ok else EXIT_FINDINGS


def _build_system(
    args: argparse.Namespace,
    sim: Simulation,
    tracer: "Tracer | None" = None,
    profiler: "Profiler | None" = None,
):
    """Construct the serving system described by the shared run flags."""
    model = get_model(args.model)
    scheduling = _scheduling_from_args(args)
    rng = dispatch_rng(scheduling.dispatch_policy, args.seed)
    if args.mode == "disaggregated":
        prefill_spec = InstanceSpec(
            model=model, config=ParallelismConfig(args.prefill_tp, args.prefill_pp)
        )
        decode_spec = InstanceSpec(
            model=model, config=ParallelismConfig(args.decode_tp, args.decode_pp)
        )
        return DisaggregatedSystem(
            sim, prefill_spec, decode_spec,
            num_prefill=args.num_prefill, num_decode=args.num_decode,
            tracer=tracer, profiler=profiler,
            scheduling=scheduling, rng=rng,
        )
    spec = InstanceSpec(
        model=model, config=ParallelismConfig(args.prefill_tp, args.prefill_pp)
    )
    return ColocatedSystem(
        sim, spec, num_replicas=args.num_prefill, tracer=tracer,
        profiler=profiler, scheduling=scheduling, rng=rng,
    )


def _trace_from_args(args: argparse.Namespace) -> Trace:
    """The seeded synthetic trace described by the shared run flags.

    Raises:
        ValueError: for ``--requests 0``, which the library accepts but
            which leaves nothing to report.
    """
    trace = generate_trace(
        get_dataset(args.dataset), rate=args.rate, num_requests=args.requests,
        rng=np.random.default_rng(args.seed),
    )
    if not len(trace):
        raise ValueError("--requests must be positive: an empty trace "
                         "has nothing to report")
    return trace


def _cmd_trace(args: argparse.Namespace) -> int:
    sim, sanitizer = _make_sim(args)
    tracer = Tracer()
    try:
        system = _build_system(args, sim, tracer=tracer)
        trace = _trace_from_args(args)
    except _BAD_VALUE as exc:
        return _usage_error(args, exc)
    if sanitizer is not None:
        sanitizer.watch_system(system)
    result = simulate_trace(system, trace)
    if args.out:
        write_chrome_trace(args.out, result.spans)
    if args.jsonl_out:
        write_jsonl(args.jsonl_out, result.spans)
    print(f"{result.completed}/{len(trace)} requests, "
          f"{len(result.spans)} spans in {result.sim_time:.1f}s simulated"
          f"{_rejected(result)}")
    if args.out:
        print(f"Chrome trace written to {args.out} "
              f"(open in Perfetto or chrome://tracing)")
    if args.jsonl_out:
        print(f"JSON-lines trace written to {args.jsonl_out}")
    paths = critical_paths(result.spans)
    totals = {name: math.fsum(getattr(p, name) for p in paths) for name in PHASES}
    grand = math.fsum(totals.values())
    for name, total in totals.items():
        print(f"  {name:14s} {total / grand if grand > 0 else 0.0:6.1%}")
    # Reconciliation: per-request phase sums vs record end-to-end latency.
    by_id = {r.request_id: r.end_to_end_latency for r in result.records}
    worst = max(
        (abs(p.phase_sum - by_id[p.request_id])
         for p in paths if p.request_id in by_id),
        default=0.0,
    )
    summary = latency_summary(result.records)
    print(f"e2e mean/p99: {summary['e2e_mean']:.3f} / {summary['e2e_p99']:.3f} s; "
          f"max |span-sum - e2e| = {worst:.2e} s")
    return _finish_sanitize(sanitizer)


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Run a seeded workload with full instrumentation and report it."""
    sim, sanitizer = _make_sim(args)
    try:
        system = _build_system(args, sim)
        slo = SLO(ttft=args.ttft, tpot=args.tpot)
        registry = MetricsRegistry()
        monitor = SloMonitor(sim, slo, window=args.window, registry=registry)
        trace = _trace_from_args(args)
        if sanitizer is not None:
            sanitizer.watch_system(system)
        system.attach_monitor(monitor)
        system.instrument(registry)
        # Time-series view: sample every counter and gauge on a fixed
        # cadence for the whole arrival span plus drain slack.
        samples = registry.sample(
            sim, args.interval, until=trace.duration + 2.0 * args.window
        )
    except _BAD_VALUE as exc:
        return _usage_error(args, exc)
    result = simulate_trace(system, trace)

    busy = samples.series["repro_utilization"]
    utilization = []
    for i in range(len(samples.times)):
        phases = phase_utilization(registry, {k: v[i] for k, v in busy.items()})
        utilization.append(sum(phases.values()) / max(1, len(phases)))
    window = "repro_slo_attainment_window"
    print(format_series(
        "t(s)", [f"{t:.0f}" for t in samples.times],
        {
            "attain_total": samples.get(window, {"objective": "total"}),
            "attain_ttft": samples.get(window, {"objective": "ttft"}),
            "attain_tpot": samples.get(window, {"objective": "tpot"}),
            "goodput_rps": samples.get(
                "repro_goodput_window_rps", {"objective": "total"}
            ),
            "in_flight": samples.get("repro_requests_in_flight"),
            "utilization": utilization,
        },
        title=f"windowed SLO attainment & utilization "
              f"(window={args.window:g}s, interval={args.interval:g}s)",
    ))
    print()
    print(monitor.describe())
    cum = monitor.cumulative_attainment()
    offline = slo_attainment(result.records, slo)
    print(f"cumulative attainment: total={cum.total:.3%} "
          f"ttft={cum.ttft_only:.3%} tpot={cum.tpot_only:.3%} "
          f"(n={cum.num_requests}; offline check: {offline.total:.3%})")
    util = phase_utilization(registry)
    if util:
        print("per-phase utilization: "
              + "  ".join(f"{phase}={value:.1%}" for phase, value in util.items()))
    print(f"{result.completed}/{len(trace)} requests on {result.num_gpus} GPUs "
          f"in {result.sim_time:.1f}s simulated")
    if args.prom_out:
        write_prometheus_text(args.prom_out, registry)
        print(f"Prometheus text export written to {args.prom_out}")
    if args.json_out:
        write_metrics_json(args.json_out, registry)
        print(f"JSON metrics snapshot written to {args.json_out}")
    return _finish_sanitize(sanitizer)


def _cmd_profile(args: argparse.Namespace) -> int:
    """Critical-path profile of one run, or a diff of two saved runs."""
    if args.diff:
        try:
            report_a = json.loads(pathlib.Path(args.diff[0]).read_text())
            report_b = json.loads(pathlib.Path(args.diff[1]).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"repro profile: cannot read report: {exc}", file=sys.stderr)
            return EXIT_USAGE
        try:
            report = diff_profiles(report_a, report_b)
        except (ValueError, KeyError, TypeError) as exc:
            print(f"repro profile: bad report: {exc}", file=sys.stderr)
            return EXIT_USAGE
        rendered = (
            profile_to_json(report) if args.format == "json"
            else format_profile_diff(report)
        )
        sys.stdout.write(rendered)
        sanitizer = None
    else:
        sim, sanitizer = _make_sim(args)
        tracer = Tracer()
        profiler = Profiler()
        try:
            system = _build_system(args, sim, tracer=tracer, profiler=profiler)
            trace = _trace_from_args(args)
        except _BAD_VALUE as exc:
            return _usage_error(args, exc)
        if sanitizer is not None:
            sanitizer.watch_system(system)
        result = simulate_trace(system, trace)
        slo = (args.ttft, args.tpot) if args.ttft > 0 and args.tpot > 0 else None
        report = build_profile(
            tracer.spans,
            profiler=profiler,
            sim_time=result.sim_time,
            slo=slo,
            meta={
                "mode": args.mode,
                "model": args.model,
                "dataset": args.dataset,
                "rate": args.rate,
                "requests": args.requests,
                "seed": args.seed,
            },
            num_gpus=result.num_gpus,
        )
        rendered = (
            profile_to_json(report) if args.format == "json"
            else format_profile(report)
        )
        sys.stdout.write(rendered)
    if args.json_out:
        pathlib.Path(args.json_out).write_text(profile_to_json(report))
        print(f"JSON profile written to {args.json_out}", file=sys.stderr)
    if args.html_out:
        pathlib.Path(args.html_out).write_text(profile_to_html(report))
        print(f"HTML profile written to {args.html_out}", file=sys.stderr)
    return _finish_sanitize(sanitizer)


def _cmd_analyze(args: argparse.Namespace) -> int:
    model = get_model(args.model)
    gpu = get_gpu(args.gpu)
    coeffs = coefficients_from_roofline(gpu)
    print(f"{model.name} on {gpu.name}")
    print(f"  saturation length L_m: {saturation_length(model, coeffs)} tokens")
    for tp in (1, 2, 4, 8):
        if model.num_heads % tp:
            continue
        times = prefill_times(
            model, ParallelismConfig(tp, 1), coeffs, [args.input_len]
        )
        k = intra_op_speedup(model, coeffs, args.input_len, tp) if tp > 1 else 1.0
        print(f"  prefill({args.input_len} tok) tp={tp}: "
              f"{times.request_latency * 1e3:7.1f} ms  (K = {k:.2f})")
    return 0


def _add_scheduling_flags(p: argparse.ArgumentParser) -> None:
    """Shared ``repro.scheduling`` policy flags (defaults = paper §4.3)."""
    p.add_argument("--queue-policy", choices=QUEUE_POLICIES, default="fcfs",
                   help="admission order of waiting requests")
    p.add_argument("--batch-policy", choices=BATCH_POLICIES,
                   default="token_budget",
                   help="prefill batch shaping (chunked splits oversized "
                        "prompts across consecutive batches)")
    p.add_argument("--dispatch-policy", choices=DISPATCH_POLICIES,
                   default="least_loaded",
                   help="cross-instance routing (random/power_of_two draw "
                        "from a dedicated RNG seeded by --seed)")


def _add_run_flags(
    p: argparse.ArgumentParser, requests: int, mode: bool = True
) -> None:
    """Workload and deployment flags shared by the simulation commands.

    ``requests`` is the subcommand's default trace length; ``mode`` adds
    ``--mode`` (``serve`` always runs the disaggregated system).
    """
    p.add_argument("--model", default="opt-13b")
    p.add_argument("--dataset", default="sharegpt")
    if mode:
        p.add_argument("--mode", choices=("disaggregated", "colocated"),
                       default="disaggregated")
    p.add_argument("--rate", type=float, default=2.0)
    p.add_argument("--requests", type=int, default=requests)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--num-prefill", type=int, default=1,
                   help="prefill instances (replicas in colocated mode)")
    p.add_argument("--num-decode", type=int, default=1)
    p.add_argument("--prefill-tp", type=int, default=1)
    p.add_argument("--prefill-pp", type=int, default=1)
    p.add_argument("--decode-tp", type=int, default=1)
    p.add_argument("--decode-pp", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DistServe reproduction toolkit",
        epilog=(
            "exit codes: 0 success; 1 findings (sanitizer violations under "
            "--sanitize, even in lenient mode); 2 usage errors (bad "
            "arguments or flag values, unreadable inputs)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list known model architectures")

    plan = sub.add_parser("plan", help="search a goodput-optimal placement")
    plan.add_argument("--model", default="opt-13b")
    plan.add_argument("--application", default="chatbot")
    plan.add_argument("--traffic", type=float, default=0.0,
                      help="target rate (req/s); 0 sizes one deployment unit")
    plan.add_argument("--high-affinity", action="store_true",
                      help="use Algorithm 1 (fast cross-node fabric)")
    plan.add_argument("--candidates", type=int, default=3)
    plan.add_argument("--trial-requests", type=int, default=150)
    plan.add_argument("--workers", type=int, default=1,
                      help="simulation worker processes (<=1 runs in-process; "
                           "the placement found is identical either way)")
    plan.add_argument("--search-stats", action="store_true",
                      help="print cache hit rate, pruned configs and wall time")
    plan.add_argument("--no-fast-kernel", action="store_true",
                      help="force the per-step reference simulation path "
                           "(the fast-forward kernel is bit-identical, so "
                           "this only changes speed, never the placement)")
    _add_scheduling_flags(plan)

    serve = sub.add_parser("serve", help="simulate serving a trace")
    _add_run_flags(serve, requests=300, mode=False)
    serve.set_defaults(mode="disaggregated")
    serve.add_argument("--ttft", type=float, default=0.0)
    serve.add_argument("--tpot", type=float, default=0.0)
    _add_scheduling_flags(serve)

    trace_p = sub.add_parser(
        "trace", help="simulate a synthetic trace and dump the span timeline"
    )
    _add_run_flags(trace_p, requests=100)
    trace_p.add_argument("--out", default="",
                         help="optional Chrome trace_event output path")
    trace_p.add_argument("--jsonl-out", default="",
                         help="optional JSON-lines span dump path")
    trace_p.add_argument("--sanitize", action="store_true",
                         help="run under SimSanitizer (monotonic time, "
                              "request conservation, KV-leak and transfer "
                              "double-free checks); exit 1 on violations")
    _add_scheduling_flags(trace_p)

    metrics = sub.add_parser(
        "metrics",
        help="serve a trace with full instrumentation; report/export metrics",
    )
    _add_run_flags(metrics, requests=300)
    metrics.add_argument("--ttft", type=float, default=4.0,
                         help="TTFT SLO in seconds")
    metrics.add_argument("--tpot", type=float, default=0.2,
                         help="TPOT SLO in seconds")
    metrics.add_argument("--window", type=float, default=30.0,
                         help="sliding-window span for online attainment (s)")
    metrics.add_argument("--interval", type=float, default=10.0,
                         help="time-series sampling cadence (s)")
    metrics.add_argument("--prom-out", default="",
                         help="Prometheus text-format export path")
    metrics.add_argument("--json-out", default="",
                         help="JSON metrics snapshot path")
    metrics.add_argument("--sanitize", action="store_true",
                         help="run under SimSanitizer; exit 1 on violations")
    _add_scheduling_flags(metrics)

    profile = sub.add_parser(
        "profile",
        help="critical-path profile: per-phase latency attribution, "
             "utilization timelines, and differential run comparison",
    )
    _add_run_flags(profile, requests=100)
    profile.add_argument("--ttft", type=float, default=0.0,
                         help="TTFT SLO in seconds (0 disables goodput)")
    profile.add_argument("--tpot", type=float, default=0.0,
                         help="TPOT SLO in seconds (0 disables goodput)")
    profile.add_argument("--format", choices=("human", "json"),
                         default="human")
    profile.add_argument("--json-out", default="",
                         help="machine-readable profile report path")
    profile.add_argument("--html-out", default="",
                         help="self-contained HTML report path")
    profile.add_argument("--diff", nargs=2, metavar=("A", "B"), default=None,
                         help="compare two saved --json-out reports instead "
                              "of running a simulation")
    profile.add_argument("--sanitize", action="store_true",
                         help="run under SimSanitizer; exit 1 on violations")
    _add_scheduling_flags(profile)

    analyze = sub.add_parser("analyze", help="latency-model analysis of a model")
    analyze.add_argument("--model", default="opt-13b")
    analyze.add_argument("--gpu", default="a100-80gb")
    analyze.add_argument("--input-len", type=int, default=512)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "models": _cmd_models,
        "plan": _cmd_plan,
        "serve": _cmd_serve,
        "trace": _cmd_trace,
        "metrics": _cmd_metrics,
        "profile": _cmd_profile,
        "analyze": _cmd_analyze,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
