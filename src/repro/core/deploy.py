"""Turn a :class:`Placement` into a runnable serving system."""

from __future__ import annotations

from .config import Placement
from ..hardware.cluster import Cluster
from ..latency.parallel import ParallelismConfig
from ..models.architecture import ModelArchitecture
from ..scheduling.dispatch import dispatch_rng
from ..serving.disaggregated import DisaggregatedSystem
from ..simulator.events import Simulation
from ..simulator.instance import InstanceSpec
from ..simulator.tracing import Tracer

__all__ = ["build_system", "instance_spec"]


def instance_spec(
    model: ModelArchitecture,
    cluster: Cluster,
    config: ParallelismConfig,
    stage_colocated: bool,
) -> InstanceSpec:
    """One instance of ``config`` as the placement searches lay it out.

    Tensor-parallel shards always share a node. Pipeline stages cross
    nodes when the placement colocates stages (Algorithm 2 puts stage k
    of every instance on node k, so any ``pp > 1`` spans nodes) or,
    otherwise (Algorithm 1), when the instance needs more GPUs than one
    node holds.
    """
    if stage_colocated:
        spans_nodes = config.pp > 1
    else:
        spans_nodes = config.num_gpus > cluster.gpus_per_node
    return InstanceSpec(
        model=model,
        config=config,
        gpu=cluster.gpu,
        tp_link=cluster.intra_node_link,
        pp_link=cluster.cross_node_link if spans_nodes else cluster.intra_node_link,
    )


def build_system(
    sim: Simulation,
    model: ModelArchitecture,
    placement: Placement,
    cluster: Cluster,
    tracer: "Tracer | None" = None,
) -> DisaggregatedSystem:
    """Instantiate the disaggregated system a placement describes.

    Instances get the links the search scored them with
    (:func:`instance_spec`). KV transfers ride NVLink when the placement
    is stage-colocated (Algorithm 2 output), the cross-node fabric
    otherwise (Algorithm 1). The system runs the scheduling policies the
    placement was searched under; randomized dispatch draws from the
    same fixed-seed generator Algorithm 2's trials use. ``tracer``, when
    given, receives every request's lifecycle spans.
    """
    colocated = placement.kv_transfer_intra_node
    if colocated:
        link = cluster.intra_node_link
        channels = min(placement.prefill.config.pp, placement.decode.config.pp)
    else:
        link = cluster.cross_node_link
        channels = 1
    return DisaggregatedSystem(
        sim,
        instance_spec(model, cluster, placement.prefill.config, colocated),
        instance_spec(model, cluster, placement.decode.config, colocated),
        num_prefill=placement.prefill.num_instances,
        num_decode=placement.decode.num_instances,
        transfer_link=link,
        transfer_channels=channels,
        rng=dispatch_rng(placement.scheduling.dispatch_policy),
        tracer=tracer,
        scheduling=placement.scheduling,
    )
