"""Placement data types: per-phase configurations and the final placement.

A *placement* (§4) is (a) the parallelism strategy for prefill and
decoding instances, (b) how many of each to deploy, and (c) how they map
onto the cluster — here summarized by which link KV transfers cross.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..latency.parallel import ParallelismConfig
from ..scheduling.config import DEFAULT_SCHEDULING, SchedulingConfig

__all__ = ["PhasePlan", "Placement"]


@dataclass(frozen=True)
class PhasePlan:
    """Parallelism and replication chosen for one phase.

    Attributes:
        config: Tensor/pipeline degrees of each instance.
        num_instances: Replicas deployed.
        goodput_per_instance: Simulated max rate (req/s) one instance
            sustains at the SLO attainment target.
    """

    config: ParallelismConfig
    num_instances: int
    goodput_per_instance: float

    def __post_init__(self) -> None:
        if self.num_instances <= 0:
            raise ValueError(f"num_instances must be positive, got {self.num_instances}")
        if self.goodput_per_instance < 0:
            raise ValueError("goodput_per_instance must be >= 0")

    @property
    def num_gpus(self) -> int:
        return self.config.num_gpus * self.num_instances

    @property
    def total_goodput(self) -> float:
        return self.goodput_per_instance * self.num_instances


@dataclass(frozen=True)
class Placement:
    """A full deployment plan for one model (Algorithm 1/2 output).

    Attributes:
        prefill: Prefill-phase plan.
        decode: Decode-phase plan.
        kv_transfer_intra_node: Whether KV migrations stay on NVLink
            (True under Algorithm 2's stage-colocated layout).
        scheduling: The policy triple the placement was searched under.
            Deployments must run the same policies the search simulated,
            so the plan carries them to :func:`repro.core.build_system`.
    """

    prefill: PhasePlan
    decode: PhasePlan
    kv_transfer_intra_node: bool = True
    scheduling: SchedulingConfig = DEFAULT_SCHEDULING

    @property
    def num_gpus(self) -> int:
        return self.prefill.num_gpus + self.decode.num_gpus

    @property
    def system_goodput(self) -> float:
        """Rate the whole deployment sustains: the slower phase binds."""
        return min(self.prefill.total_goodput, self.decode.total_goodput)

    @property
    def per_gpu_goodput(self) -> float:
        """The objective DistServe maximizes (§2)."""
        if self.num_gpus == 0:
            return 0.0
        return self.system_goodput / self.num_gpus

    def describe(self) -> str:
        """One-line human-readable summary (Appendix B style)."""
        return (
            f"prefill {self.prefill.num_instances}x(tp={self.prefill.config.tp},"
            f"pp={self.prefill.config.pp}) | decode {self.decode.num_instances}x"
            f"(tp={self.decode.config.tp},pp={self.decode.config.pp}) | "
            f"{self.num_gpus} GPUs | {self.per_gpu_goodput:.2f} req/s/GPU"
        )
