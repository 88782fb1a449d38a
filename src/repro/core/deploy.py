"""Turn a :class:`Placement` into a runnable serving system."""

from __future__ import annotations

from .config import Placement
from ..hardware.cluster import Cluster
from ..models.architecture import ModelArchitecture
from ..scheduling.dispatch import dispatch_rng
from ..serving.disaggregated import DisaggregatedSystem
from ..simulator.events import Simulation
from ..simulator.instance import InstanceSpec

__all__ = ["build_system"]


def build_system(
    sim: Simulation,
    model: ModelArchitecture,
    placement: Placement,
    cluster: Cluster,
    transfer_mode: str = "pull",
) -> DisaggregatedSystem:
    """Instantiate the disaggregated system a placement describes.

    KV transfers ride NVLink when the placement is stage-colocated
    (Algorithm 2 output), the cross-node fabric otherwise (Algorithm 1).
    The system runs the scheduling policies the placement was searched
    under; randomized dispatch draws from the same fixed-seed generator
    Algorithm 2's trials use.
    """
    if placement.kv_transfer_intra_node:
        link = cluster.intra_node_link
        channels = min(placement.prefill.config.pp, placement.decode.config.pp)
    else:
        link = cluster.cross_node_link
        channels = 1
    pp_pre = placement.prefill.config.pp
    pp_dec = placement.decode.config.pp
    prefill_spec = InstanceSpec(
        model=model,
        config=placement.prefill.config,
        gpu=cluster.gpu,
        tp_link=cluster.intra_node_link,
        pp_link=cluster.cross_node_link if pp_pre > 1 and placement.kv_transfer_intra_node
        else cluster.intra_node_link,
    )
    decode_spec = InstanceSpec(
        model=model,
        config=placement.decode.config,
        gpu=cluster.gpu,
        tp_link=cluster.intra_node_link,
        pp_link=cluster.cross_node_link if pp_dec > 1 and placement.kv_transfer_intra_node
        else cluster.intra_node_link,
    )
    return DisaggregatedSystem(
        sim,
        prefill_spec,
        decode_spec,
        num_prefill=placement.prefill.num_instances,
        num_decode=placement.decode.num_instances,
        transfer_link=link,
        transfer_channels=channels,
        transfer_mode=transfer_mode,
        rng=dispatch_rng(placement.scheduling.dispatch_policy),
        scheduling=placement.scheduling,
    )
