"""Parallelism-aware execution times: tensor (intra-op) and pipeline (inter-op).

§3 of the paper analyses how the two forms of model parallelism reshape
latency:

* **Intra-op (tensor) parallelism** divides each layer's GEMMs across
  GPUs — execution time drops by a factor ``K`` with ``1 < K < tp`` due to
  the two all-reduces every transformer layer performs.
* **Inter-op (pipeline) parallelism** splits layers into stages — request
  latency stays roughly flat (``D ≈ Ds ≈ pp × Dm``) while the pipeline
  slot time ``Dm`` (and hence throughput) improves almost linearly.

This module turns a (model, :class:`ParallelismConfig`) pair into the two
numbers the simulator consumes: the *request latency* (one batch through
all stages) and the *stage time* (how long a pipeline slot is occupied,
the throughput-limiting quantity).
"""

from __future__ import annotations

from dataclasses import dataclass

from .coefficients import LatencyCoefficients
from .decode import decode_step_latency
from .prefill import prefill_latency
from ..hardware.network import NVLINK, NetworkLink
from ..models.architecture import ModelArchitecture

__all__ = [
    "ParallelismConfig",
    "ExecutionTimes",
    "tp_allreduce_time_per_layer",
    "prefill_times",
    "decode_times",
    "intra_op_speedup",
]


@dataclass(frozen=True)
class ParallelismConfig:
    """A (tensor parallel, pipeline parallel) degree pair.

    Attributes:
        tp: Intra-operator (tensor) parallel degree.
        pp: Inter-operator (pipeline) parallel degree.
    """

    tp: int = 1
    pp: int = 1

    def __post_init__(self) -> None:
        if self.tp <= 0 or self.pp <= 0:
            raise ValueError(f"parallel degrees must be positive, got tp={self.tp} pp={self.pp}")

    @property
    def num_gpus(self) -> int:
        """GPUs one instance with this configuration occupies."""
        return self.tp * self.pp

    def is_valid_for(self, model: ModelArchitecture) -> bool:
        """Whether the model can be partitioned this way."""
        return model.num_heads % self.tp == 0 and model.num_layers >= self.pp

    def __str__(self) -> str:
        return f"tp{self.tp}pp{self.pp}"


@dataclass(frozen=True)
class ExecutionTimes:
    """Latency decomposition of one batch under a parallelism config.

    Attributes:
        request_latency: Seconds from batch entering stage 0 to leaving the
            last stage — what a single request experiences (``Ds``).
        stage_time: Seconds the slowest pipeline stage is occupied
            (``Dm``); the pipeline admits a new batch every ``stage_time``.
    """

    request_latency: float
    stage_time: float

    def __post_init__(self) -> None:
        if self.stage_time < 0 or self.request_latency < 0:
            raise ValueError("times must be non-negative")
        if self.stage_time > self.request_latency + 1e-12:
            raise ValueError("stage_time cannot exceed request_latency")


def tp_allreduce_time_per_layer(
    model: ModelArchitecture,
    num_tokens: int,
    tp: int,
    link: NetworkLink = NVLINK,
) -> float:
    """Per-layer all-reduce cost of ``tp``-way tensor parallelism.

    Each transformer layer all-reduces the activations twice (after
    attention output and after FFN output). A ring all-reduce moves
    ``2 (tp-1)/tp × bytes`` per GPU. This communication is what makes the
    intra-op speedup coefficient ``K`` of Eq. 3 less than ``tp``.
    """
    if tp <= 1:
        return 0.0
    bytes_per = num_tokens * model.hidden_size * model.bytes_per_param
    ring_factor = 2.0 * (tp - 1) / tp
    one_allreduce = link.latency * (tp - 1) + ring_factor * bytes_per / link.bandwidth
    return 2.0 * one_allreduce


def _pipeline_times(
    per_layer_time: float,
    num_layers: int,
    pp: int,
    activation_transfer: float,
    iteration_overhead: float,
) -> ExecutionTimes:
    """Assemble request latency / stage time from a per-layer cost.

    The per-iteration engine overhead (scheduler, sampling, microbatch
    handling) is host-side work every stage performs for every batch: it
    lands once on the stage cadence and ``pp`` times on the request
    latency — deep pipelines pay it at every hop, which is part of why
    real searches stop at modest inter-op degrees.
    """
    layers_slowest = -(-num_layers // pp)
    stage = (
        layers_slowest * per_layer_time
        + (activation_transfer if pp > 1 else 0.0)
        + iteration_overhead
    )
    request = (
        num_layers * per_layer_time
        + (pp - 1) * activation_transfer
        + pp * iteration_overhead
    )
    return ExecutionTimes(request_latency=max(request, stage), stage_time=stage)


def prefill_times(
    model: ModelArchitecture,
    config: ParallelismConfig,
    coeffs: LatencyCoefficients,
    input_lens: "list[int]",
    tp_link: NetworkLink = NVLINK,
    pp_link: NetworkLink = NVLINK,
) -> ExecutionTimes:
    """Execution times of one prefill batch under ``config``.

    Args:
        model: *Full* (un-sharded) model architecture.
        config: Parallelism degrees; must satisfy
            :meth:`ParallelismConfig.is_valid_for`.
        coeffs: Latency coefficients.
        input_lens: Prompt lengths in the batch.
        tp_link: Link used by tensor-parallel all-reduces.
        pp_link: Link used by inter-stage activation sends.
    """
    if not config.is_valid_for(model):
        raise ValueError(f"{config} is invalid for model {model.name}")
    # O(B) reference path: the fast kernel's prefill batches go through
    # PrefillBatchTimer (DESIGN.md §4h), which takes running totals.
    total_tokens = sum(input_lens)
    if total_tokens == 0:
        return ExecutionTimes(0.0, 0.0)
    compute_per_layer = prefill_latency(
        model, coeffs, input_lens, num_layers=1, tp=config.tp
    )
    comm_per_layer = tp_allreduce_time_per_layer(model, total_tokens, config.tp, tp_link)
    act_transfer = (
        pp_link.time_for(total_tokens * model.activation_bytes_per_token())
        if config.pp > 1
        else 0.0
    )
    return _pipeline_times(
        compute_per_layer + comm_per_layer,
        model.num_layers,
        config.pp,
        act_transfer,
        coeffs.iteration_overhead,
    )


def decode_times(
    model: ModelArchitecture,
    config: ParallelismConfig,
    coeffs: LatencyCoefficients,
    context_lens: "list[int]",
    tp_link: NetworkLink = NVLINK,
    pp_link: NetworkLink = NVLINK,
) -> ExecutionTimes:
    """Execution times of one decoding step under ``config``."""
    if not config.is_valid_for(model):
        raise ValueError(f"{config} is invalid for model {model.name}")
    if not context_lens:
        return ExecutionTimes(0.0, 0.0)
    compute_per_layer = decode_step_latency(
        model, coeffs, context_lens, num_layers=1, tp=config.tp
    )
    comm_per_layer = tp_allreduce_time_per_layer(
        model, len(context_lens), config.tp, tp_link
    )
    act_transfer = (
        pp_link.time_for(len(context_lens) * model.activation_bytes_per_token())
        if config.pp > 1
        else 0.0
    )
    return _pipeline_times(
        compute_per_layer + comm_per_layer,
        model.num_layers,
        config.pp,
        act_transfer,
        coeffs.iteration_overhead,
    )


def intra_op_speedup(
    model: ModelArchitecture,
    coeffs: LatencyCoefficients,
    input_len: int,
    tp: int,
    tp_link: NetworkLink = NVLINK,
) -> float:
    """Measured speedup coefficient ``K`` of Eq. 3 for a prefill request.

    ``K = D / D_s`` where ``D`` is the single-GPU execution time and
    ``D_s`` the time under ``tp``-way intra-op parallelism. Communication
    overhead keeps ``K < tp``.
    """
    base = prefill_times(model, ParallelismConfig(1, 1), coeffs, [input_len])
    par = prefill_times(model, ParallelismConfig(tp, 1), coeffs, [input_len], tp_link)
    if par.request_latency == 0:
        return 1.0
    return base.request_latency / par.request_latency
