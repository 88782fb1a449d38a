"""Burstiness demo: pull-based vs push-based KV-cache migration (§4.3).

DistServe pulls KV caches "as needed", using prefill GPU memory as a
queuing buffer so traffic bursts cannot flood decode memory. This
example drives a disaggregated deployment with increasingly bursty
gamma arrivals and compares the two transfer policies on decode-side
queuing and tail TPOT.

Run:
    python examples/burstiness_pull_vs_push.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis import critical_paths, tpot_percentile
from repro.latency import ParallelismConfig
from repro.models import get_model
from repro.serving import DisaggregatedSystem, simulate_trace
from repro.simulator import InstanceSpec, Simulation, Tracer
from repro.workload import SHAREGPT, generate_trace


def main() -> None:
    model = get_model("opt-13b")
    spec = InstanceSpec(model=model, config=ParallelismConfig(1, 1))
    rate = 7.0

    print(f"{'burst cv':>8} | {'policy':>6} | {'mean decode queue':>18} | {'P90 TPOT':>9}")
    for cv in (1.0, 2.0, 4.0):
        trace = generate_trace(
            SHAREGPT, rate=rate, num_requests=500,
            rng=np.random.default_rng(11),
            arrival_process="gamma", burst_cv=cv,
        )
        for mode in ("pull", "push"):
            sim = Simulation()
            system = DisaggregatedSystem(
                sim, spec, spec, num_prefill=2, num_decode=1, transfer_mode=mode,
                tracer=Tracer(),
            )
            res = simulate_trace(system, trace, max_events=5_000_000)
            paths = critical_paths(res.spans)
            queue = float(np.mean([p.decode_queue for p in paths]))
            print(f"{cv:8.1f} | {mode:>6} | {queue:18.4f} | "
                  f"{tpot_percentile(res.records):9.4f}")


if __name__ == "__main__":
    main()
