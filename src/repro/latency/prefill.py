"""Prefill-phase latency (paper Appendix A.2) with roofline extension.

The paper models prefill GEMMs as purely compute-bound (the ``C1`` term)
because realistic prompts push arithmetic intensity past the A100 ridge
point. To also reproduce the *unsaturated* region visible in Figure 3(a)
— throughput climbing with input length until the GPU saturates — the
GEMM term adds the weight-streaming cost to the compute cost (a smooth
roofline: small batches cannot hide weight traffic behind compute),
which converges to the paper's formula in the compute-bound regime.

Tensor parallelism enters via the ``tp`` argument: a ``tp``-way split
divides each layer's FLOPs and weight bytes by ``tp`` (Megatron-style
column/row sharding splits exactly one dimension of every GEMM), while
the per-layer kernel overhead ``C3`` does not shrink. All-reduce
communication is added separately in :mod:`repro.latency.parallel`.
"""

from __future__ import annotations

from .coefficients import (
    LatencyCoefficients,
    attn_term_prefill,
    gemm_term_decode,
    gemm_term_prefill,
)
from ..models.architecture import ModelArchitecture

__all__ = ["prefill_latency", "prefill_throughput", "saturation_length"]


def prefill_latency(
    model: ModelArchitecture,
    coeffs: LatencyCoefficients,
    input_lens: "list[int]",
    num_layers: "int | None" = None,
    tp: int = 1,
) -> float:
    """Execution time of one prefill batch through ``num_layers`` layers.

    Args:
        model: Full (un-sharded) architecture.
        coeffs: Calibrated latency coefficients.
        input_lens: Prompt length of each request in the batch.
        num_layers: Layers executed (defaults to the full model; pass the
            per-stage layer count to model one pipeline stage).
        tp: Tensor-parallel degree dividing per-layer FLOPs and bytes.

    Returns:
        Wall-clock seconds for the batch (no queuing and no TP all-reduce
        time — see :mod:`repro.latency.parallel` for those).
    """
    if any(length < 0 for length in input_lens):
        raise ValueError(f"input lengths must be >= 0, got {input_lens}")
    if tp <= 0:
        raise ValueError(f"tp must be positive, got {tp}")
    layers = model.num_layers if num_layers is None else num_layers
    if layers <= 0:
        raise ValueError(f"num_layers must be positive, got {layers}")
    # O(B) reference path; PrefillBatchTimer (DESIGN.md §4h) memoizes
    # on these two totals, kept as running sums by its callers.
    # reprolint: disable=PERF001 -- O(B) reference path, replaced by §4h PrefillBatchTimer
    t = sum(input_lens)
    if t == 0:
        return 0.0
    # reprolint: disable=PERF001 -- O(B) reference path, replaced by §4h PrefillBatchTimer
    t2 = float(sum(length * length for length in input_lens))

    # GEMM term: compute cost (paper's C1 term) plus weight-streaming cost.
    # The weight traffic of one layer is the same 4h^2 + 2hm elements the
    # decode model charges via C4, independent of t.
    # Compute pays the TP partition-efficiency penalty; weight streaming
    # shards perfectly across ranks.
    gemm_compute = coeffs.c1 * gemm_term_prefill(model, t) / coeffs.effective_tp(tp)
    gemm_memory = coeffs.c4 * gemm_term_decode(model) / tp
    gemm = gemm_compute + gemm_memory

    # Attention term: memory cost (paper's C2 term) vs. its FLOPs cost.
    # FlashAttention performs ~4 * h * t2 FLOPs per layer, i.e. 2*h*t2 in
    # the multiply-accumulate units C1 is expressed in. A single fused
    # kernel overlaps the two, hence max() rather than sum.
    attn_memory = coeffs.c2 * attn_term_prefill(model, t2, coeffs.attention_block_size) / tp
    attn_compute = coeffs.c1 * 2.0 * model.hidden_size * t2 / coeffs.effective_tp(tp)
    attn = max(attn_memory, attn_compute)

    return layers * (gemm + attn + coeffs.c3)


def prefill_throughput(
    model: ModelArchitecture,
    coeffs: LatencyCoefficients,
    input_lens: "list[int]",
    tp: int = 1,
) -> float:
    """Prefill throughput in tokens/second for one batch (Figure 3a)."""
    total = sum(input_lens)
    if total == 0:
        return 0.0
    return total / prefill_latency(model, coeffs, input_lens, tp=tp)


#: Tokens-times-hidden product that saturates one A100-class GPU's SMs.
#: Calibrated so a 13B model (h=5120) saturates at ~512 tokens — the
#: paper's §2.1/§3.1 observation.
_OCCUPANCY_CONSTANT = 512 * 5120


def saturation_length(
    model: ModelArchitecture,
    coeffs: LatencyCoefficients,
    max_len: int = 8192,
    min_len: int = 64,
    tp: int = 1,
) -> int:
    """Critical input length ``L_m`` beyond which prefill is compute-bound.

    §3.1/§4.3: the scheduler batches prefills up to total length ~``L_m``;
    beyond it adding tokens only stretches the batch proportionally.
    Saturation is an *occupancy* phenomenon — the GEMMs need roughly a
    constant ``tokens x hidden`` volume of parallel work to fill the
    GPU's SMs — so larger models saturate at shorter sequences ("the
    larger the model, the shorter sequence is needed", §2.1), and
    tensor parallelism, which shrinks per-GPU work, raises ``L_m``
    proportionally.

    The ``coeffs`` argument is accepted for signature stability with a
    profiling-based implementation (the paper profiles ``L_m`` per
    model/GPU pair); the occupancy model here plays that role offline.
    """
    del coeffs  # occupancy model needs only architecture + tp
    if max_len < min_len:
        raise ValueError(f"max_len {max_len} < min_len {min_len}")
    if tp <= 0:
        raise ValueError(f"tp must be positive, got {tp}")
    raw = _OCCUPANCY_CONSTANT * tp / model.hidden_size
    return int(min(max(raw, min_len), max_len))
