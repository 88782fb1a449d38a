"""Design-choice ablations called out in DESIGN.md.

1. **Pull vs push KV transfer** (§4.3 "Combat burstiness"): under bursty
   (gamma, cv=4) arrivals, the pull policy keeps decode admission gated
   on memory; push fires transfers immediately, so under pressure the
   decode side accumulates un-admittable requests. We compare decode
   queuing delay and completion under both.
2. **Dispatch policy**: least-loaded vs round-robin vs random (§4.3
   dispatches to the shortest queue).
3. **Batch shaping**: capping prefill batches near L_m vs an unshaped
   4096-token budget (§4.3 "Reducing pipeline bubbles").
4. **Chunked-prefill baseline** (SARATHI, §2.2): trades TTFT for TPOT
   relative to vLLM's prefill-priority scheduling.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import critical_paths, format_table, tpot_percentile, ttft_percentile
from repro.hardware import NVLINK
from repro.latency import ParallelismConfig
from repro.models import get_model
from repro.scheduling import SchedulingConfig
from repro.serving import ColocatedSystem, DisaggregatedSystem, simulate_trace
from repro.simulator import InstanceSpec, PrefillInstance, RequestState, Simulation, Tracer
from repro.workload import SHAREGPT, generate_trace

MODEL = get_model("opt-13b")
SPEC = InstanceSpec(model=MODEL, config=ParallelismConfig(1, 1))
N = 400


def _run(system_factory, trace):
    sim = Simulation()
    res = simulate_trace(system_factory(sim), trace, max_events=5_000_000)
    return res


def run_ablations():
    out = {}

    # 1. Pull vs push under burstiness.
    bursty = generate_trace(
        SHAREGPT, rate=7.0, num_requests=N, rng=np.random.default_rng(3),
        arrival_process="gamma", burst_cv=4.0,
    )
    for mode in ("pull", "push"):
        res = _run(
            lambda sim, m=mode: DisaggregatedSystem(
                sim, SPEC, SPEC, num_prefill=2, num_decode=1,
                transfer_link=NVLINK, transfer_mode=m, tracer=Tracer(),
            ),
            bursty,
        )
        out[f"transfer_{mode}"] = res

    # 2. Dispatch policies.
    steady = generate_trace(SHAREGPT, rate=10.0, num_requests=N, rng=np.random.default_rng(4))
    for policy in ("least_loaded", "round_robin", "random", "power_of_two"):
        res = _run(
            lambda sim, p=policy: DisaggregatedSystem(
                sim, SPEC, SPEC, num_prefill=3, num_decode=2,
                transfer_link=NVLINK, scheduling=SchedulingConfig(dispatch_policy=p),
                rng=np.random.default_rng(9),
            ),
            steady,
        )
        out[f"dispatch_{policy}"] = res

    # 3. Batch shaping (prefill token budget near L_m vs unshaped).
    trace = generate_trace(SHAREGPT, rate=8.0, num_requests=N, rng=np.random.default_rng(5))
    for label, limit in (("shaped(L_m)", None), ("unshaped(4096)", 4096)):
        sim = Simulation()
        done = []
        inst = PrefillInstance(
            sim, SPEC,
            on_prefill_done=lambda s: (done.append(s), inst.release_kv(s.request_id)),
            scheduling=SchedulingConfig(batch_token_limit=limit),
        )
        for req in trace:
            sim.schedule_at(
                req.arrival_time,
                lambda r=req: inst.submit(RequestState(request=r)),
            )
        sim.run(max_events=3_000_000)
        ttfts = [s.token_times[0] - s.request.arrival_time for s in done]
        out[f"shaping_{label}"] = float(np.percentile(ttfts, 90)) if ttfts else float("inf")

    # 4. Chunked prefill vs prefill-priority (colocated).
    trace = generate_trace(SHAREGPT, rate=2.2, num_requests=N, rng=np.random.default_rng(6))
    for policy in ("prefill_priority", "chunked"):
        res = _run(lambda sim, p=policy: ColocatedSystem(sim, SPEC, policy=p), trace)
        out[f"colocated_{policy}"] = res
    return out


def _mean_decode_queue(res) -> float:
    return float(np.mean([p.decode_queue for p in critical_paths(res.spans)]))


def test_ablation_extras(benchmark):
    out = benchmark.pedantic(run_ablations, rounds=1, iterations=1)
    rows = []
    for mode in ("pull", "push"):
        res = out[f"transfer_{mode}"]
        dq = _mean_decode_queue(res)
        rows.append([f"KV transfer: {mode}", res.completed, dq, tpot_percentile(res.records)])
    for policy in ("least_loaded", "round_robin", "random", "power_of_two"):
        res = out[f"dispatch_{policy}"]
        rows.append(
            [f"dispatch: {policy}", res.completed,
             ttft_percentile(res.records), tpot_percentile(res.records)]
        )
    print()
    print(
        format_table(
            ["variant", "completed", "metric-1", "metric-2"],
            rows,
            title="Ablations: transfer mode (decode-queue mean / P90 TPOT), "
            "dispatch (P90 TTFT / P90 TPOT)",
            float_fmt="{:.4f}",
        )
    )
    print(
        f"\nbatch shaping P90 TTFT: shaped {out['shaping_shaped(L_m)']:.3f}s vs "
        f"unshaped {out['shaping_unshaped(4096)']:.3f}s"
    )
    pp = out["colocated_prefill_priority"]
    ck = out["colocated_chunked"]
    print(
        f"chunked-prefill trade (SARATHI): P90 TTFT {ttft_percentile(pp.records):.3f}"
        f"->{ttft_percentile(ck.records):.3f}, "
        f"P90 TPOT {tpot_percentile(pp.records):.4f}->{tpot_percentile(ck.records):.4f}"
    )

    # Pull keeps decode queuing no worse than push under bursts and both
    # complete the trace.
    assert out["transfer_pull"].unfinished == 0
    pull_dq = _mean_decode_queue(out["transfer_pull"])
    push_dq = _mean_decode_queue(out["transfer_push"])
    assert pull_dq <= push_dq + 1e-3
    # Least-loaded dispatch beats random on tail TTFT.
    assert ttft_percentile(out["dispatch_least_loaded"].records) <= ttft_percentile(
        out["dispatch_random"].records
    ) * 1.05
    # Two random choices beat one (balls-into-bins): power-of-two's tail
    # TTFT tracks least-loaded far more closely than blind random does.
    assert ttft_percentile(out["dispatch_power_of_two"].records) <= ttft_percentile(
        out["dispatch_random"].records
    ) * 1.05
    # Chunked prefill trades TTFT for TPOT (the §2.2 claim): TPOT improves
    # (or matches) while TTFT worsens (or matches).
    assert tpot_percentile(ck.records) <= tpot_percentile(pp.records) * 1.10
    assert ttft_percentile(ck.records) >= ttft_percentile(pp.records) * 0.90
