"""The four benchmark workloads, driven through the public library API.

Every workload has the same shape:

* ``prepare(seed, size)`` builds the inputs from the seed (traces are
  generated here, before any timing);
* ``unit(inputs)`` is one timed pass — the work a user waits for; a
  ``pause`` callback, when given, is called between the pass's steps
  (``run.py`` measures the host's speed there, outside the pass's time);
* ``summarize(inputs, out)`` turns a pass's output into the ``sim_*``
  metrics, the per-pass request/failure counts, and the workload's own
  per-layer counters;
* ``check(inputs, out)`` compares the output with the reference path and
  returns a list of failures (empty when correct).

All workloads use opt-13b, the Table 1 chatbot SLO (TTFT 0.2 s, TPOT
0.1 s), the fast kernel and default scheduling. Library calls go through
module attributes (``serving.simulate_trace``) so that the traced run's
wrappers see them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from repro import analysis, core, hardware, serving, simulator, workload
from repro.core import goodput
from repro.models import get_model

MODEL = "opt-13b"
DATASET = "sharegpt"
SLO = workload.SLO(ttft=0.2, tpot=0.1)
RATE = 4.0

#: Requests per trace of the trial workloads, by size.
TRIAL_REQUESTS = {"full": 4000, "tiny": 60}

#: observed-disagg serves that trace in this many consecutive parts, one
#: system each: with every observer attached a pass runs about five times
#: slower, and shorter steps let the host's speed be measured more often
#: (see ``calibrate.py``).
OBSERVED_PARTS = {"full": 2, "tiny": 1}

#: Cluster sizes (nodes, GPUs per node) of the Figure 12 sweep, by size.
#: The 2x4 cluster of Figure 12 is left out: its search alone takes longer
#: than a whole run, which leaves one timed pass and no median to take.
SWEEP_CLUSTERS = {"full": ((1, 2), (1, 4)), "tiny": ((1, 2),)}
SWEEP_TRIAL_REQUESTS = 60


@dataclass
class Summary:
    """What one pass produced, reduced to numbers."""

    sim_requests: int
    attempted: int
    failed: int
    sim: "dict[str, float]"
    layer: "dict[str, float]" = field(default_factory=dict)


def _spec():
    return simulator.InstanceSpec(model=get_model(MODEL))


def _trace(seed: int, size: str):
    return workload.generate_trace(
        workload.get_dataset(DATASET), rate=RATE,
        num_requests=TRIAL_REQUESTS[size], rng=np.random.default_rng(seed),
    )


def _record_keys(records) -> "list[tuple[int, float, float, float]]":
    return sorted((r.request_id, r.ttft, r.tpot, r.finish_time) for r in records)


def _split(trace, parts: int) -> "list[list[Any]]":
    """``trace`` cut into ``parts`` consecutive pieces, each re-timed so its
    clock starts at the previous piece's last arrival."""
    size = -(-len(trace) // parts)
    pieces = []
    for i in range(0, len(trace), size):
        start = trace[i - 1].arrival_time if i else 0.0
        pieces.append([
            replace(r, arrival_time=r.arrival_time - start) for r in trace[i:i + size]
        ])
    return pieces


def _latency_metrics(records, num_expected: int) -> "dict[str, float]":
    return {
        "sim_ttft_p50_s": analysis.ttft_percentile(records, 50),
        "sim_ttft_p99_s": analysis.ttft_percentile(records, 99),
        "sim_tpot_p50_s": analysis.tpot_percentile(records, 50),
        "sim_tpot_p99_s": analysis.tpot_percentile(records, 99),
        "sim_slo_attainment": analysis.slo_attainment(
            records, SLO, num_expected=num_expected
        ).total,
    }


# ----------------------------------------------------------------------
# Trial workloads: one trace through one serving system per pass.
# ----------------------------------------------------------------------

def _disaggregated(sim, spec, fast_kernel=True, **observers):
    return serving.DisaggregatedSystem(
        sim, spec, spec, num_prefill=2, num_decode=2,
        fast_kernel=fast_kernel, **observers,
    )


def _colocated(sim, spec, fast_kernel=True):
    return serving.ColocatedSystem(sim, spec, num_replicas=4, fast_kernel=fast_kernel)


def _trial_summary(inputs, results, rejections: int) -> Summary:
    """The metrics of one trace, served whole or in parts (``results``)."""
    n = len(inputs["trace"])
    records = [r for result in results for r in result.records]
    met = sum(1 for r in records if r.meets(SLO.ttft, SLO.tpot))
    sim_time = sum(result.sim_time for result in results)
    return Summary(
        sim_requests=n,
        attempted=n,
        failed=sum(result.unfinished for result in results) + rejections,
        sim={
            **_latency_metrics(records, n),
            "sim_goodput_per_gpu": met / sim_time / results[0].num_gpus,
        },
    )


class TrialWorkload:
    """A serving system fed one seeded ShareGPT trace at 4 req/s."""

    def __init__(self, name: str, make_system: Callable[..., Any]) -> None:
        self.name = name
        self._make_system = make_system

    def prepare(self, seed: int, size: str = "full") -> "dict[str, Any]":
        return {"spec": _spec(), "trace": _trace(seed, size)}

    def unit(self, inputs, fast_kernel: bool = True, pause=None):
        system = self._make_system(
            simulator.Simulation(), inputs["spec"], fast_kernel=fast_kernel
        )
        result = serving.simulate_trace(system, inputs["trace"])
        return {"result": result, "rejections": system.rejections}

    def summarize(self, inputs, out) -> Summary:
        return _trial_summary(inputs, [out["result"]], out["rejections"])

    def check(self, inputs, out) -> "list[str]":
        reference = self.unit(inputs, fast_kernel=False)["result"]
        if _record_keys(out["result"].records) != _record_keys(reference.records):
            return [f"{self.name}: records differ from the per-step reference path"]
        return []


class ObservedWorkload(TrialWorkload):
    """``disagg-sharegpt`` with every observer attached, then ``build_profile``.

    The trace is served in ``OBSERVED_PARTS`` consecutive parts, each by a
    fresh observed system; the metrics pool the parts' records.
    """

    def __init__(self) -> None:
        super().__init__("observed-disagg", _disaggregated)

    def prepare(self, seed: int, size: str = "full") -> "dict[str, Any]":
        inputs = super().prepare(seed, size)
        inputs["parts"] = _split(inputs["trace"], OBSERVED_PARTS[size])
        return inputs

    def unit(self, inputs, fast_kernel: bool = True, pause=None):
        parts = []
        for i, trace in enumerate(inputs["parts"]):
            if i and pause is not None:
                pause()
            parts.append(self._observe(inputs["spec"], trace, fast_kernel))
        return parts

    @staticmethod
    def _observe(spec, trace, fast_kernel: bool):
        sim = simulator.Simulation()
        tracer = simulator.Tracer()
        profiler = simulator.Profiler()
        system = _disaggregated(
            sim, spec, fast_kernel=fast_kernel, tracer=tracer, profiler=profiler,
        )
        registry = simulator.MetricsRegistry()
        monitor = simulator.SloMonitor(sim, SLO, registry=registry)
        system.attach_monitor(monitor)
        system.instrument(registry)
        result = serving.simulate_trace(system, trace)
        analysis.build_profile(
            tracer.spans, profiler=profiler, sim_time=result.sim_time,
            slo=(SLO.ttft, SLO.tpot), num_gpus=result.num_gpus,
        )
        analysis.slo_attainment(result.records, SLO, num_expected=len(trace))
        return {
            "result": result, "rejections": system.rejections,
            "tracer": tracer, "profiler": profiler,
        }

    def summarize(self, inputs, out) -> Summary:
        return _trial_summary(
            inputs, [part["result"] for part in out],
            sum(part["rejections"] for part in out),
        )

    def check(self, inputs, out) -> "list[str]":
        failures = []
        for trace, part in zip(inputs["parts"], out):
            bare = serving.simulate_trace(
                _disaggregated(simulator.Simulation(), inputs["spec"]), trace
            )
            if _record_keys(part["result"].records) != _record_keys(bare.records):
                failures.append("observed-disagg: records differ from the bare fast path")
            paths = analysis.critical_paths(
                part["tracer"].spans, transfer_events=part["profiler"].transfer_events
            )
            if len(paths) != len(part["result"].records):
                failures.append("observed-disagg: not every request has a critical path")
            worst = max(
                (abs(p.phase_sum - p.end_to_end_latency) for p in paths), default=0.0
            )
            if worst > 1e-9:
                failures.append(
                    f"observed-disagg: critical-path phases miss e2e latency by {worst:.3g} s"
                )
        return failures


# ----------------------------------------------------------------------
# search-fig12: the Figure 12 placement sweep.
# ----------------------------------------------------------------------

_ALGORITHMS = (
    ("alg1", "place_high_affinity", {}),
    ("alg2", "place_low_affinity", {"joint_sim_candidates": 4}),
)


def _cluster(num_nodes: int, gpus_per_node: int):
    return hardware.Cluster(
        nodes=[hardware.Node(index=i, num_gpus=gpus_per_node) for i in range(num_nodes)]
    )


class SearchWorkload:
    """Algorithm 1 then Algorithm 2 on each cluster, one fresh trial cache."""

    name = "search-fig12"

    def prepare(self, seed: int, size: str = "full") -> "dict[str, Any]":
        return {
            "seed": seed,
            "model": get_model(MODEL),
            "dataset": workload.get_dataset(DATASET),
            "clusters": [
                (f"{n}x{g}", _cluster(n, g)) for n, g in SWEEP_CLUSTERS[size]
            ],
            # Traffic the 1x2 Alg2 placement is served once the sweep is done
            # (source of the sim_* latencies): half the trial workloads' load
            # per GPU, below the goodput the search finds for that placement.
            "deploy_trace": workload.generate_trace(
                workload.get_dataset(DATASET), rate=RATE / 4,
                num_requests=TRIAL_REQUESTS[size], rng=np.random.default_rng(seed),
            ),
        }

    def unit(self, inputs, fast_kernel: bool = True, clusters=None, pause=None):
        cache = core.TrialCache()
        stats = core.PlacementSearchStats()
        placements = {}
        failed_searches = 0
        # A counting shim around the trial runner's simulate_trace: one call per
        # simulated trial, so norm_req_per_s counts every trial's requests.
        trial_requests = [0]
        simulate_trace = goodput.simulate_trace

        def counting_simulate_trace(system, trace, *args, **kwargs):
            trial_requests[0] += len(trace)
            return simulate_trace(system, trace, *args, **kwargs)

        goodput.simulate_trace = counting_simulate_trace
        try:
            searches = [
                (label, cluster, algorithm)
                for label, cluster in clusters or inputs["clusters"]
                for algorithm in _ALGORITHMS
            ]
            for i, (label, cluster, (alg, fn_name, kwargs)) in enumerate(searches):
                if i and pause is not None:
                    pause()
                try:
                    placements[(alg, label)] = getattr(core, fn_name)(
                        inputs["model"], cluster, inputs["dataset"], SLO,
                        traffic_rate=None, num_requests=SWEEP_TRIAL_REQUESTS,
                        seed=inputs["seed"], stats=stats, workers=1,
                        trial_cache=cache, fast_kernel=fast_kernel, **kwargs,
                    )
                except RuntimeError:
                    placements[(alg, label)] = None
                    failed_searches += 1
        finally:
            goodput.simulate_trace = simulate_trace
        return {
            "placements": placements, "stats": stats,
            "failed_searches": failed_searches, "trial_requests": trial_requests[0],
        }

    def summarize(self, inputs, out) -> Summary:
        stats = out["stats"]
        placements = out["placements"]
        label = inputs["clusters"][-1][0]
        alg1, alg2 = placements[("alg1", label)], placements[("alg2", label)]
        sim: "dict[str, float]" = {}
        # Serve the 1x2 cluster's Alg2 placement: it always has one shape
        # (one prefill and one decode instance at tp=1). Larger clusters'
        # placements flip between near-tied shapes from seed to seed, which
        # moves the served latencies by half. Goodput is the largest
        # cluster's: on 1x2 the bisection's result halves from seed to seed.
        small, small_cluster = inputs["clusters"][0]
        deployed = placements[("alg2", small)]
        if deployed is not None and alg2 is not None:
            system = core.build_system(
                simulator.Simulation(), inputs["model"], deployed, small_cluster
            )
            result = serving.simulate_trace(system, inputs["deploy_trace"])
            sim = _latency_metrics(result.records, len(inputs["deploy_trace"]))
            sim["sim_goodput_per_gpu"] = alg2.per_gpu_goodput
        searches = len(placements)
        lookups = stats.cache_hits + stats.cache_misses
        return Summary(
            sim_requests=out["trial_requests"],
            attempted=stats.simulation_trials + searches,
            failed=stats.trials_truncated + out["failed_searches"],
            sim=sim,
            layer={
                "search.cache_hits": stats.cache_hits,
                "search.cache_lookups": lookups,
                "search.cache_hit_ratio": stats.cache_hits / lookups if lookups else 0.0,
                "search.configs_pruned": stats.configs_pruned,
                "placement.configs_evaluated": stats.configs_evaluated,
                "placement.alg1_goodput_per_gpu": alg1.per_gpu_goodput if alg1 else 0.0,
                "placement.alg2_goodput_per_gpu": alg2.per_gpu_goodput if alg2 else 0.0,
            },
        )

    def check(self, inputs, out) -> "list[str]":
        first = inputs["clusters"][:1]
        reference = self.unit(inputs, fast_kernel=False, clusters=first)["placements"]
        label = first[0][0]
        for alg, _, _ in _ALGORITHMS:
            if out["placements"][(alg, label)] != reference[(alg, label)]:
                return [f"search-fig12: {alg} on {label} differs from the reference path"]
        return []


WORKLOADS = {
    wl.name: wl
    for wl in (
        TrialWorkload("disagg-sharegpt", _disaggregated),
        TrialWorkload("coloc-sharegpt", _colocated),
        SearchWorkload(),
        ObservedWorkload(),
    )
}
