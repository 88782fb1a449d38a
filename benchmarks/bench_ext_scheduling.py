"""Extension benches: convoy-effect mitigation and fault propagation.

Both are future-work items the paper names in §4.3:

1. **Convoy effect**: "the FCFS policy can lead to a 'convoy effect',
   where longer requests block shorter ones in the prefill stage.
   Incorporating preemptive strategies could enhance efficiency." We
   compare FCFS against aged shortest-job-first on a long-tailed
   (summarization-like) prompt mix.
2. **Fault propagation**: "a fault in a single decoding instance ...
   could potentially cripple the entire service." We kill one decode
   instance mid-run and quantify the recompute burst and latency spike.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import format_table, tpot_percentile, ttft_percentile
from repro.latency import ParallelismConfig
from repro.models import get_model
from repro.scheduling import SchedulingConfig
from repro.serving import DisaggregatedSystem
from repro.simulator import InstanceSpec, PrefillInstance, RequestState, Simulation
from repro.workload import LONGBENCH, SHAREGPT, generate_trace

MODEL = get_model("opt-13b")
SPEC = InstanceSpec(model=MODEL, config=ParallelismConfig(2, 1))


def run_convoy():
    """P90/P99 prefill TTFT under FCFS vs SJF on long-tailed prompts."""
    trace = generate_trace(
        LONGBENCH, rate=1.1, num_requests=300, rng=np.random.default_rng(0)
    )
    out = {}
    for policy in ("fcfs", "sjf"):
        sim = Simulation()
        done = []
        inst = PrefillInstance(
            sim, SPEC,
            on_prefill_done=lambda s: (done.append(s), inst.release_kv(s.request_id)),
            scheduling=SchedulingConfig(queue_policy=policy),
        )
        for req in trace:
            sim.schedule_at(
                req.arrival_time, lambda r=req: inst.submit(RequestState(request=r))
            )
        sim.run(max_events=3_000_000)
        ttfts = np.array(
            [s.token_times[0] - s.request.arrival_time for s in done]
        )
        out[policy] = {
            "completed": len(done),
            "p50": float(np.percentile(ttfts, 50)),
            "p90": float(np.percentile(ttfts, 90)),
            "p99": float(np.percentile(ttfts, 99)),
        }
    return out


def run_fault():
    """Latency with and without a mid-run decode-instance failure."""
    spec = InstanceSpec(model=MODEL, config=ParallelismConfig(1, 1))
    trace = generate_trace(
        SHAREGPT, rate=8.0, num_requests=400, rng=np.random.default_rng(1)
    )
    out = {}
    for inject in (False, True):
        sim = Simulation()
        system = DisaggregatedSystem(
            sim, spec, spec, num_prefill=2, num_decode=2
        )
        for req in trace:
            sim.schedule_at(req.arrival_time, lambda r=req: system.submit(r))
        if inject:
            sim.schedule(trace.duration / 2, lambda: system.fail_decode("decode-0"))
        sim.run(max_events=5_000_000)
        out[inject] = {
            "completed": len(system.records),
            "p90_ttft": ttft_percentile(system.records),
            "p90_tpot": tpot_percentile(system.records),
            "max_tpot": max(r.tpot for r in system.records),
            "prefill_batches": sum(
                p.batches_executed for p in system.prefill_instances
            ),
        }
    return out


def test_ext_convoy_effect(benchmark):
    out = benchmark.pedantic(run_convoy, rounds=1, iterations=1)
    rows = [
        [policy, d["completed"], d["p50"], d["p90"], d["p99"]]
        for policy, d in out.items()
    ]
    print()
    print(
        format_table(
            ["policy", "completed", "p50 TTFT", "p90 TTFT", "p99 TTFT"],
            rows,
            title="Extension: convoy mitigation (long-tailed prompts, prefill only)",
        )
    )
    assert out["fcfs"]["completed"] == out["sjf"]["completed"] == 300
    # SJF improves the median and does not catastrophically hurt the tail
    # (aging bounds starvation).
    assert out["sjf"]["p50"] < out["fcfs"]["p50"]
    assert out["sjf"]["p99"] < 3.0 * out["fcfs"]["p99"]


def test_ext_fault_propagation(benchmark):
    out = benchmark.pedantic(run_fault, rounds=1, iterations=1)
    rows = [
        [
            "with decode failure" if inject else "clean run",
            d["completed"],
            d["p90_ttft"],
            d["p90_tpot"],
            d["max_tpot"],
            d["prefill_batches"],
        ]
        for inject, d in out.items()
    ]
    print()
    print(
        format_table(
            ["scenario", "completed", "p90 TTFT", "p90 TPOT", "max TPOT", "prefill batches"],
            rows,
            title="Extension: decode-failure fault propagation",
        )
    )
    clean, faulty = out[False], out[True]
    # No request is lost, but victims pay: recompute burst on the prefill
    # pool and a visible TPOT spike.
    assert faulty["completed"] == clean["completed"] == 400
    assert faulty["prefill_batches"] > clean["prefill_batches"]
    assert faulty["max_tpot"] > 1.5 * clean["max_tpot"]
