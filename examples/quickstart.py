"""Quickstart: serve a synthetic chatbot workload on a disaggregated deployment.

Builds a small DistServe-style deployment (one prefill + one decode
instance of OPT-13B), drives it with a Poisson ShareGPT-like trace, and
prints latency statistics, SLO attainment and the lifecycle breakdown
that the run's traced critical paths give.

Run:
    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis import (
    critical_paths,
    latency_breakdown,
    latency_summary,
    slo_attainment,
)
from repro.latency import ParallelismConfig
from repro.models import get_model
from repro.serving import DisaggregatedSystem, simulate_trace
from repro.simulator import InstanceSpec, Simulation, Tracer
from repro.workload import SHAREGPT, SLO, generate_trace


def main() -> None:
    model = get_model("opt-13b")
    # Prefill favors intra-op parallelism for low TTFT (§3.1); decode
    # runs on a single GPU and relies on batching (§3.2).
    prefill_spec = InstanceSpec(model=model, config=ParallelismConfig(tp=2, pp=1))
    decode_spec = InstanceSpec(model=model, config=ParallelismConfig(tp=1, pp=1))

    sim = Simulation()
    system = DisaggregatedSystem(
        sim, prefill_spec, decode_spec, num_prefill=1, num_decode=1,
        tracer=Tracer(),
    )

    trace = generate_trace(
        SHAREGPT, rate=3.0, num_requests=300, rng=np.random.default_rng(0)
    )
    result = simulate_trace(system, trace)

    print(f"served {result.completed} requests on {result.num_gpus} GPUs "
          f"({sim.now:.1f}s simulated, {result.events_processed} events)")

    summary = latency_summary(result.records)
    print(f"TTFT  mean {summary['ttft_mean'] * 1e3:7.1f} ms   "
          f"p90 {summary['ttft_p90'] * 1e3:7.1f} ms")
    print(f"TPOT  mean {summary['tpot_mean'] * 1e3:7.1f} ms   "
          f"p90 {summary['tpot_p90'] * 1e3:7.1f} ms")

    slo = SLO(ttft=0.2, tpot=0.1)  # Table 1, chatbot OPT-13B
    report = slo_attainment(result.records, slo, num_expected=len(trace))
    print(f"SLO attainment @ (TTFT {slo.ttft}s, TPOT {slo.tpot}s): "
          f"{report.total:.1%} (TTFT-only {report.ttft_only:.1%}, "
          f"TPOT-only {report.tpot_only:.1%})")

    fractions = latency_breakdown(critical_paths(result.spans)).fractions()
    print("lifecycle breakdown: " + ", ".join(
        f"{stage} {frac:.1%}" for stage, frac in fractions.items()
    ))


if __name__ == "__main__":
    main()
