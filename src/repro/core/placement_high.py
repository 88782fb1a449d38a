"""Algorithm 1: placement for high node-affinity clusters.

With fast cross-node fabric (InfiniBand), prefill and decoding instances
may land on any nodes, so the two phases are optimized *independently*:
enumerate every feasible (intra_op, inter_op) pair, simulate each phase's
goodput, keep the per-GPU-goodput argmax for each phase, then replicate
each phase to carry the target traffic ``R``.

The simulations ride on the search-acceleration layer
(:mod:`repro.core.search`): candidate phases are evaluated in fixed-size
waves through a :class:`~repro.core.search.ParallelEvaluator`, trial
outcomes are memoized in a :class:`~repro.core.search.TrialCache`, and
provably hopeless candidates (SLO-infeasible by the latency model's own
floor, or dominated by an already-measured per-GPU goodput) are pruned
before simulating. All of this is result-preserving: for fixed inputs
the returned :class:`Placement` is identical for every ``workers``
setting and with pruning on or off.
"""

from __future__ import annotations

import math
import time

from .config import PhasePlan, Placement
from .deploy import instance_spec
from .goodput import GoodputResult
from .search import (
    PRUNE_WAVE,
    ParallelEvaluator,
    PlacementSearchStats,
    TrialCache,
    make_phase_task,
    phase_slo_infeasible,
    rate_cap_per_gpu,
)
from .simulate import candidate_configs
from ..scheduling.config import DEFAULT_SCHEDULING, SchedulingConfig
from ..hardware.cluster import Cluster
from ..latency.parallel import ParallelismConfig
from ..models.architecture import ModelArchitecture
from ..models.memory import fits_in_memory
from ..simulator.instance import InstanceSpec
from ..workload.datasets import SyntheticDataset
from ..workload.slos import SLO

__all__ = ["PlacementSearchStats", "place_high_affinity"]

_PHASES = ("prefill", "decode")


def place_high_affinity(
    model: ModelArchitecture,
    cluster: Cluster,
    dataset: SyntheticDataset,
    slo: SLO,
    traffic_rate: "float | None" = None,
    node_limit_per_instance: "int | None" = None,
    attainment_target: float = 0.9,
    num_requests: int = 300,
    seed: int = 0,
    stats: "PlacementSearchStats | None" = None,
    workers: int = 1,
    trial_cache: "TrialCache | None" = None,
    prune: bool = True,
    early_abort: bool = True,
    fast_kernel: bool = True,
    scheduling: SchedulingConfig = DEFAULT_SCHEDULING,
) -> Placement:
    """Algorithm 1 of the paper.

    Args:
        model: The LLM ``G``.
        cluster: Provides ``M`` (GPUs/node), memory capacity ``C``, links.
        dataset: Workload ``W`` (length distributions).
        slo: TTFT/TPOT objectives.
        traffic_rate: Target rate ``R`` the replicated deployment carries;
            ``None`` sizes the smallest balanced deployment (replicating
            the cheaper phase until it keeps up with one unit of the
            more capable phase).
        node_limit_per_instance: ``N`` — nodes one instance may span
            (defaults to the whole cluster).
        attainment_target: SLO attainment goal for the goodput search.
        num_requests: Trace length per simulation trial.
        seed: Workload resampling seed.
        stats: Optional instrumentation sink.
        workers: Simulation worker processes; ``<= 1`` runs in-process.
            The placement returned is identical either way.
        trial_cache: Trial outcomes to replay and extend. ``None``
            gives this search a fresh :class:`TrialCache`; pass one
            cache to several searches to share their trials.
        prune: Skip simulations whose outcome is already decided
            (result-preserving; see :mod:`repro.core.search`).
        early_abort: Stop individual trials once the attainment target
            is mathematically unreachable.
        fast_kernel: Use the fast-forward simulation kernel for trials
            (default on; results are bit-identical either way).
        scheduling: Queue/batch/dispatch policy triple the simulated
            instances run. It enters every trial fingerprint, so the
            trial cache never conflates policies; the returned placement
            carries it to :func:`repro.core.build_system`.

    Returns:
        The per-GPU-goodput-optimal placement.

    Raises:
        RuntimeError: if no feasible configuration exists (model too big).
    """
    if traffic_rate is not None and traffic_rate <= 0:
        raise ValueError(f"traffic_rate must be positive, got {traffic_rate}")
    n_limit = node_limit_per_instance or cluster.num_nodes
    max_gpus = n_limit * cluster.gpus_per_node
    gpu = cluster.gpu
    cache = TrialCache() if trial_cache is None else trial_cache
    st = stats if stats is not None else PlacementSearchStats()
    st.workers = max(1, int(workers or 1))
    # Wall-clock here measures *search* cost for PlacementSearchStats
    # reporting; it never feeds simulation state, placements, or
    # cache fingerprints.
    t0 = time.perf_counter()
    try:
        entries: "list[tuple[ParallelismConfig, InstanceSpec]]" = []
        for config in candidate_configs(
            model.num_heads, model.num_layers, cluster.gpus_per_node, max_gpus
        ):
            if not fits_in_memory(model, gpu.memory_bytes, config.tp, config.pp):
                continue
            entries.append(
                (config, instance_spec(model, cluster, config, stage_colocated=False))
            )
        st.configs_evaluated += len(entries)

        # Goodput of each (config, phase); None marks a dominance-pruned
        # entry — provably unable to beat the incumbent, excluded from
        # the argmax below without affecting it.
        results: "list[dict[str, GoodputResult | None]]" = [{} for _ in entries]
        # Best per-GPU goodput measured in *completed* waves. Pruning
        # only ever consults this, so decisions are independent of
        # worker count and intra-wave completion order.
        best_seen: "dict[str, float | None]" = {"prefill": None, "decode": None}

        with ParallelEvaluator(workers) as evaluator:
            for start in range(0, len(entries), PRUNE_WAVE):
                wave = range(start, min(start + PRUNE_WAVE, len(entries)))
                tasks, slots = [], []
                for i in wave:
                    config, spec = entries[i]
                    for kind in _PHASES:
                        if prune and phase_slo_infeasible(kind, spec, dataset, slo):
                            # The latency floor alone violates the SLO:
                            # the goodput search would return exactly 0.
                            results[i][kind] = GoodputResult(0.0, 0.0, 0)
                            st.configs_pruned += 1
                            continue
                        incumbent = best_seen[kind]
                        if (
                            prune
                            and incumbent is not None
                            and rate_cap_per_gpu(config.num_gpus) <= incumbent
                        ):
                            results[i][kind] = None
                            st.configs_pruned += 1
                            continue
                        tasks.append(
                            make_phase_task(
                                kind, spec, dataset, slo, attainment_target,
                                num_requests, seed, cache, early_abort,
                                fast_kernel, scheduling,
                            )
                        )
                        slots.append((i, kind))
                for (i, kind), tr in zip(slots, evaluator.run(tasks)):
                    cache.merge(tr.context_fp, tr.new_entries)
                    st.absorb(tr)
                    results[i][kind] = tr.result
                for i in wave:
                    config, _spec = entries[i]
                    for kind in _PHASES:
                        res = results[i][kind]
                        if res is None:
                            continue
                        per_gpu = res.goodput / config.num_gpus
                        incumbent = best_seen[kind]
                        if incumbent is None or per_gpu > incumbent:
                            best_seen[kind] = per_gpu

        best_prefill: "tuple[float, ParallelismConfig, float] | None" = None
        best_decode: "tuple[float, ParallelismConfig, float] | None" = None
        for (config, _spec), res in zip(entries, results):
            pre = res["prefill"]
            if pre is not None:
                per_gpu = pre.goodput / config.num_gpus
                if best_prefill is None or per_gpu > best_prefill[0]:
                    best_prefill = (per_gpu, config, pre.goodput)
            dec = res["decode"]
            if dec is not None:
                per_gpu = dec.goodput / config.num_gpus
                if best_decode is None or per_gpu > best_decode[0]:
                    best_decode = (per_gpu, config, dec.goodput)

        if best_prefill is None or best_decode is None:
            raise RuntimeError(
                f"no feasible configuration for {model.name} on this cluster"
            )
        if best_prefill[2] <= 0 or best_decode[2] <= 0:
            raise RuntimeError(
                f"SLO {slo} unattainable for {model.name} at any enumerated config"
            )

        if traffic_rate is None:
            # Smallest balanced deployment: pick the replica counts (within a
            # small bound) that maximize per-GPU goodput — one copy of each
            # phase can leave the faster phase mostly idle when the phase
            # goodputs are far apart.
            best_ratio, num_prefill, num_decode = -1.0, 1, 1
            for n in range(1, 9):
                for m in range(1, 9):
                    served = min(n * best_prefill[2], m * best_decode[2])
                    gpus = (
                        n * best_prefill[1].num_gpus + m * best_decode[1].num_gpus
                    )
                    if served / gpus > best_ratio:
                        best_ratio, num_prefill, num_decode = served / gpus, n, m
        else:
            num_prefill = max(1, math.ceil(traffic_rate / best_prefill[2]))
            num_decode = max(1, math.ceil(traffic_rate / best_decode[2]))
        return Placement(
            prefill=PhasePlan(
                config=best_prefill[1],
                num_instances=num_prefill,
                goodput_per_instance=best_prefill[2],
            ),
            decode=PhasePlan(
                config=best_decode[1],
                num_instances=num_decode,
                goodput_per_instance=best_decode[2],
            ),
            kv_transfer_intra_node=False,
            scheduling=scheduling,
        )
    finally:
        st.wall_time_s += time.perf_counter() - t0
