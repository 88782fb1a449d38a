"""Algorithm 2: placement for low node-affinity clusters.

When cross-node bandwidth is scarce (the paper's 25 Gbps testbed), KV
caches must ride intra-node NVLink. The key insight (§4.2): transfers
occur only between *corresponding pipeline stages*, so by giving both
phases the same inter-op degree and colocating matching prefill/decode
segments on one node, all KV traffic stays inside nodes.

The search enumerates the shared inter-op degree and, per node, the
intra-node split — ``n_p`` prefill segments of ``tp_p`` GPUs plus
``n_d`` decode segments of ``tp_d`` GPUs with
``n_p*tp_p + n_d*tp_d <= M``. Each candidate *deployment unit*
(``n_p`` prefill + ``n_d`` decode instances spanning ``inter_op`` nodes)
is scored by simulating the full disaggregated system.

Joint simulation is expensive, so candidates are first ranked by the
cheap phase-level estimate ``min(n_p*goodput_p, n_d*goodput_d)`` and
only the top ``joint_sim_candidates`` are jointly simulated — the same
pruning spirit as the paper's parallelized search (§6.5). On top of
that, the search-acceleration layer (:mod:`repro.core.search`) runs the
unique phase simulations and the joint waves through a
:class:`~repro.core.search.ParallelEvaluator` with trial memoization,
and stops refining once the next candidate's estimate cannot beat the
best joint per-GPU goodput already measured (the phase-level estimate
upper-bounds the joint goodput: the full system adds queueing and
KV-transfer delay on top of each phase in isolation).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial

from .config import PhasePlan, Placement
from .deploy import instance_spec
from .search import (
    JOINT_PRUNE_WAVE,
    ParallelEvaluator,
    PlacementSearchStats,
    TrialCache,
    make_phase_task,
    make_task,
    phase_slo_infeasible,
)
from ..hardware.cluster import Cluster
from ..latency.parallel import ParallelismConfig
from ..models.architecture import ModelArchitecture
from ..models.memory import fits_in_memory
from ..scheduling.config import DEFAULT_SCHEDULING, SchedulingConfig
from ..scheduling.dispatch import dispatch_rng
from ..serving.disaggregated import DisaggregatedSystem
from ..simulator.events import Simulation
from ..simulator.instance import InstanceSpec
from ..workload.datasets import SyntheticDataset
from ..workload.slos import SLO

__all__ = ["IntraNodeConfig", "get_intra_node_configs", "place_low_affinity"]

#: Arrival span of each joint deployment-unit trial.
JOINT_TRIAL_MIN_DURATION = 45.0

#: Most prefill (decode) instances one deployment unit packs per node.
MAX_PREFILL_INSTANCES = 4
MAX_DECODE_INSTANCES = 2


@dataclass(frozen=True)
class IntraNodeConfig:
    """One way to pack prefill/decode segments into a node (Algorithm 2).

    Attributes:
        inter_op: Pipeline degree shared by both phases.
        num_prefill: Prefill instances in the deployment unit.
        prefill_tp: Tensor degree of each prefill segment.
        num_decode: Decode instances in the unit.
        decode_tp: Tensor degree of each decode segment.
    """

    inter_op: int
    num_prefill: int
    prefill_tp: int
    num_decode: int
    decode_tp: int

    @property
    def gpus_per_node(self) -> int:
        return self.num_prefill * self.prefill_tp + self.num_decode * self.decode_tp

    @property
    def num_gpus(self) -> int:
        """Total GPUs of the unit across its ``inter_op`` nodes."""
        return self.gpus_per_node * self.inter_op


def get_intra_node_configs(
    model: ModelArchitecture,
    inter_op: int,
    gpus_per_node: int,
    gpu_memory_bytes: int,
) -> "list[IntraNodeConfig]":
    """Enumerate feasible intra-node segment packings for one inter-op degree.

    A packing holds up to :data:`MAX_PREFILL_INSTANCES` prefill and
    :data:`MAX_DECODE_INSTANCES` decode segments.
    """
    configs: "list[IntraNodeConfig]" = []
    tp_options = [
        tp for tp in range(1, gpus_per_node + 1) if model.num_heads % tp == 0
    ]
    for tp_p in tp_options:
        if not fits_in_memory(model, gpu_memory_bytes, tp_p, inter_op):
            continue
        for tp_d in tp_options:
            if not fits_in_memory(model, gpu_memory_bytes, tp_d, inter_op):
                continue
            for n_p in range(1, MAX_PREFILL_INSTANCES + 1):
                for n_d in range(1, MAX_DECODE_INSTANCES + 1):
                    used = n_p * tp_p + n_d * tp_d
                    if used <= gpus_per_node:
                        configs.append(
                            IntraNodeConfig(
                                inter_op=inter_op,
                                num_prefill=n_p,
                                prefill_tp=tp_p,
                                num_decode=n_d,
                                decode_tp=tp_d,
                            )
                        )
    return configs


def _phase_spec(
    model: ModelArchitecture, cluster: Cluster, tp: int, pp: int
) -> InstanceSpec:
    return instance_spec(
        model, cluster, ParallelismConfig(tp=tp, pp=pp), stage_colocated=True
    )


def _unit_factory(
    model: ModelArchitecture,
    cluster: Cluster,
    cand: IntraNodeConfig,
    sim: Simulation,
    fast_kernel: bool = True,
    scheduling: SchedulingConfig = DEFAULT_SCHEDULING,
) -> DisaggregatedSystem:
    # Stage k of both phases shares node k, so pipeline activations cross
    # nodes (tiny traffic) while KV migrations stay on NVLink (§4.2).
    return DisaggregatedSystem(
        sim,
        _phase_spec(model, cluster, cand.prefill_tp, cand.inter_op),
        _phase_spec(model, cluster, cand.decode_tp, cand.inter_op),
        num_prefill=cand.num_prefill,
        num_decode=cand.num_decode,
        # Stage colocation pins KV migration to NVLink, one channel per
        # stage pair (§4.2).
        transfer_link=cluster.intra_node_link,
        transfer_channels=cand.inter_op,
        fast_kernel=fast_kernel,
        scheduling=scheduling,
        # Built inside the factory, so trials are reproducible from the
        # task fingerprint alone.
        rng=dispatch_rng(scheduling.dispatch_policy),
    )


def place_low_affinity(
    model: ModelArchitecture,
    cluster: Cluster,
    dataset: SyntheticDataset,
    slo: SLO,
    traffic_rate: "float | None" = None,
    node_limit_per_instance: "int | None" = None,
    attainment_target: float = 0.9,
    num_requests: int = 300,
    seed: int = 0,
    joint_sim_candidates: int = 5,
    stats: "PlacementSearchStats | None" = None,
    workers: int = 1,
    trial_cache: "TrialCache | None" = None,
    prune: bool = True,
    early_abort: bool = True,
    fast_kernel: bool = True,
    scheduling: SchedulingConfig = DEFAULT_SCHEDULING,
) -> Placement:
    """Algorithm 2 of the paper.

    Returns a placement whose deployment unit keeps every KV transfer on
    intra-node NVLink; the unit is replicated to carry ``traffic_rate``
    (pass ``None`` for a single, un-replicated deployment unit).

    ``workers``, ``trial_cache``, ``prune`` and ``early_abort`` behave
    as in :func:`repro.core.placement_high.place_high_affinity`: in
    particular ``trial_cache=None`` gives this search a fresh
    :class:`TrialCache`, and one cache passed to several searches
    shares their trials. The returned placement is identical for every
    combination.

    Raises:
        RuntimeError: if no feasible unit exists or SLOs are unattainable.
    """
    if traffic_rate is not None and traffic_rate <= 0:
        raise ValueError(f"traffic_rate must be positive, got {traffic_rate}")
    n_limit = node_limit_per_instance or cluster.num_nodes
    gpu = cluster.gpu
    cache = TrialCache() if trial_cache is None else trial_cache
    st = stats if stats is not None else PlacementSearchStats()
    st.workers = max(1, int(workers or 1))
    # Wall-clock here measures *search* cost for PlacementSearchStats
    # reporting; it never feeds simulation state, placements, or
    # cache fingerprints.
    t0 = time.perf_counter()
    try:
        # Enumerate candidate packings and the unique (kind, tp, pp)
        # phase simulations they share, in discovery order.
        cand_list: "list[IntraNodeConfig]" = []
        phase_keys: "list[tuple[str, int, int]]" = []
        seen: "set[tuple[str, int, int]]" = set()
        for inter_op in range(1, n_limit + 1):
            if inter_op > model.num_layers:
                break
            for cand in get_intra_node_configs(
                model, inter_op, cluster.gpus_per_node, gpu.memory_bytes
            ):
                cand_list.append(cand)
                for kind, tp in (
                    ("prefill", cand.prefill_tp),
                    ("decode", cand.decode_tp),
                ):
                    key = (kind, tp, inter_op)
                    if key not in seen:
                        seen.add(key)
                        phase_keys.append(key)
        st.configs_evaluated += len(cand_list)
        if not cand_list:
            raise RuntimeError(f"no feasible configuration for {model.name}")

        best: "tuple[float, IntraNodeConfig, float] | None" = None
        with ParallelEvaluator(workers) as evaluator:
            # Phase-level goodput per unique (kind, tp, pp) — one batch
            # of mutually independent simulations, ideal for fan-out.
            phase_goodput: "dict[tuple[str, int, int], float]" = {}
            tasks, slots = [], []
            for key in phase_keys:
                kind, tp, pp = key
                spec = _phase_spec(model, cluster, tp, pp)
                if prune and phase_slo_infeasible(kind, spec, dataset, slo):
                    phase_goodput[key] = 0.0
                    st.configs_pruned += 1
                    continue
                tasks.append(
                    make_phase_task(
                        kind, spec, dataset, slo, attainment_target,
                        num_requests, seed, cache, early_abort, fast_kernel,
                        scheduling,
                    )
                )
                slots.append(key)
            for key, tr in zip(slots, evaluator.run(tasks)):
                cache.merge(tr.context_fp, tr.new_entries)
                st.absorb(tr)
                phase_goodput[key] = tr.result.goodput

            candidates: "list[tuple[float, IntraNodeConfig]]" = []
            for cand in cand_list:
                estimate = min(
                    cand.num_prefill
                    * phase_goodput[("prefill", cand.prefill_tp, cand.inter_op)],
                    cand.num_decode
                    * phase_goodput[("decode", cand.decode_tp, cand.inter_op)],
                )
                candidates.append((estimate / cand.num_gpus, cand))
            candidates.sort(key=lambda item: item[0], reverse=True)
            # A zero phase-level estimate means one phase cannot meet its
            # SLO at any rate under that packing; such candidates cannot
            # joint-simulate any better, so only probe them if nothing
            # positive exists.
            positive = [c for c in candidates if c[0] > 0]
            if positive:
                candidates = positive

            top = candidates[:joint_sim_candidates]
            for start in range(0, len(top), JOINT_PRUNE_WAVE):
                wave = top[start : start + JOINT_PRUNE_WAVE]
                tasks, slots = [], []
                for estimate, cand in wave:
                    # Estimates are sorted descending, so once one falls
                    # at or below the best measured joint per-GPU goodput
                    # every remaining candidate is dominated too.
                    if prune and best is not None and estimate <= best[0]:
                        st.configs_pruned += 1
                        continue
                    factory = partial(
                        _unit_factory, model, cluster, cand,
                        fast_kernel=fast_kernel, scheduling=scheduling,
                    )
                    tasks.append(
                        make_task(
                            factory, dataset, slo, attainment_target,
                            num_requests, seed, JOINT_TRIAL_MIN_DURATION,
                            cache, early_abort,
                        )
                    )
                    slots.append(cand)
                for cand, tr in zip(slots, evaluator.run(tasks)):
                    cache.merge(tr.context_fp, tr.new_entries)
                    st.absorb(tr)
                    per_gpu = tr.result.goodput / cand.num_gpus
                    if best is None or per_gpu > best[0]:
                        best = (per_gpu, cand, tr.result.goodput)

        if best is None or best[2] <= 0:
            raise RuntimeError(f"SLO {slo} unattainable for {model.name}")

        per_gpu, cand, unit_goodput = best
        if traffic_rate is None:
            num_units = 1
        else:
            num_units = max(1, math.ceil(traffic_rate / unit_goodput))
        return Placement(
            prefill=PhasePlan(
                config=ParallelismConfig(tp=cand.prefill_tp, pp=cand.inter_op),
                num_instances=cand.num_prefill * num_units,
                goodput_per_instance=unit_goodput / cand.num_prefill,
            ),
            decode=PhasePlan(
                config=ParallelismConfig(tp=cand.decode_tp, pp=cand.inter_op),
                num_instances=cand.num_decode * num_units,
                goodput_per_instance=unit_goodput / cand.num_decode,
            ),
            kv_transfer_intra_node=True,
            scheduling=scheduling,
        )
    finally:
        st.wall_time_s += time.perf_counter() - t0
