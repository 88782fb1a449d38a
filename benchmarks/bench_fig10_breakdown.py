"""Figure 10: latency breakdown and KV-transfer CDF (OPT-175B, ShareGPT).

*(a)* The five lifecycle stages' share of total request time, summed
over the critical paths of a traced run — transfer must account for
well under 1% despite the 175B KV caches, because the low-node-affinity
placement pins migrations to NVLink.
*(b)* The CDF of absolute transfer times — the paper reports >95% of
requests under 30 ms even on the 25 Gbps-fabric testbed.
"""

from __future__ import annotations

import numpy as np

from benchmarks.common import distserve_placement
from repro.analysis import cdf_points, critical_paths, format_table, latency_breakdown
from repro.core import build_system
from repro.hardware import paper_testbed
from repro.models import get_model
from repro.serving import simulate_trace
from repro.simulator import Simulation, Tracer
from repro.workload import generate_trace, get_dataset, get_workload

N = 400


def run_figure10():
    workload = get_workload("chatbot", "opt-175b")
    dataset = get_dataset(workload.dataset_name)
    placement = distserve_placement("chatbot", "opt-175b")
    # Operate at a moderate utilization point.
    rate = max(0.05, 0.6 * placement.system_goodput)
    trace = generate_trace(dataset, rate, N, np.random.default_rng(0))
    system = build_system(
        Simulation(), get_model("opt-175b"), placement, paper_testbed(),
        tracer=Tracer(),
    )
    res = simulate_trace(system, trace, max_events=8_000_000)
    breakdown = latency_breakdown(critical_paths(res.spans))
    durations = [t.duration for t in res.transfer_records]
    return placement, breakdown, durations


def test_fig10_breakdown(benchmark):
    placement, breakdown, durations = benchmark.pedantic(
        run_figure10, rounds=1, iterations=1
    )
    fractions = breakdown.fractions()
    print(f"\nDistServe placement: {placement.describe()}")
    print(
        format_table(
            ["stage", "total seconds", "fraction"],
            [[k, getattr(breakdown, k), v] for k, v in fractions.items()],
            title="Figure 10(a): lifecycle latency breakdown, OPT-175B/ShareGPT",
            float_fmt="{:.4f}",
        )
    )
    xs, ys = cdf_points(durations)
    marks = [0.5, 0.9, 0.95, 0.99]
    rows = [[f"p{int(m * 100)}", float(np.interp(m, ys, xs)) * 1e3] for m in marks]
    print(
        format_table(
            ["percentile", "transfer time (ms)"],
            rows,
            title="Figure 10(b): KV-cache transfer time CDF",
            float_fmt="{:.2f}",
        )
    )
    # The paper's claims: transfer <0.1% of total lifecycle time and >95%
    # of transfers well under 30 ms.
    assert fractions["transfer"] < 0.01
    p95 = float(np.interp(0.95, ys, xs))
    assert p95 < 0.030, f"p95 transfer {p95 * 1e3:.1f} ms"
    # Decode execution dominates the lifecycle (many tokens per request).
    assert fractions["decode_exec"] == max(fractions.values())
