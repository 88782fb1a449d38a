"""Decoding-phase latency (paper Appendix A.3) with roofline extension.

One decoding step processes one new token per request in the batch. The
paper models it as memory-bound: weight streaming (the ``C4`` term, batch
independent) plus KV-cache reads proportional to the total context length
(the ``C5`` term). We additionally add the compute cost so that very
large batches "begin to resemble the prefill phase" (§3.2), i.e. the
step time transitions from flat to linear in batch size.

Tensor parallelism (``tp``) divides per-layer FLOPs, weight bytes, and
KV reads by ``tp``; kernel overhead ``C3`` does not shrink.
"""

from __future__ import annotations

from .coefficients import (
    LatencyCoefficients,
    attn_term_decode,
    gemm_term_decode,
    gemm_term_prefill,
)
from ..models.architecture import ModelArchitecture

__all__ = ["decode_step_latency", "decode_throughput", "compute_bound_batch_size"]


def decode_step_latency(
    model: ModelArchitecture,
    coeffs: LatencyCoefficients,
    context_lens: "list[int]",
    num_layers: "int | None" = None,
    tp: int = 1,
) -> float:
    """Execution time of one decoding step for a batch.

    Args:
        model: Full (un-sharded) architecture.
        coeffs: Calibrated latency coefficients.
        context_lens: Current context length (prompt + generated so far)
            of each request; the batch size is ``len(context_lens)``.
        num_layers: Layers executed (defaults to full model).
        tp: Tensor-parallel degree.

    Returns:
        Wall-clock seconds for one step of the whole batch.
    """
    if any(length < 0 for length in context_lens):
        raise ValueError(f"context lengths must be >= 0, got {context_lens}")
    if tp <= 0:
        raise ValueError(f"tp must be positive, got {tp}")
    layers = model.num_layers if num_layers is None else num_layers
    if layers <= 0:
        raise ValueError(f"num_layers must be positive, got {layers}")
    batch_size = len(context_lens)
    if batch_size == 0:
        return 0.0
    # The reference per-step path is O(B) by design; the fast-forward
    # kernel (DESIGN.md §4h) bypasses it and keeps this total
    # incrementally. Integer sum, so summation order cannot change it.
    total_context = float(sum(context_lens))

    # GEMM term: weight streaming (paper's C4) plus compute at batch size
    # B, which dominates once B crosses the device's compute-bound
    # threshold. Memory traffic shards perfectly across TP ranks (each
    # GPU streams only its own weights), so only the compute side pays
    # the partition-efficiency penalty.
    gemm_memory = coeffs.c4 * gemm_term_decode(model) / tp
    gemm_compute = coeffs.c1 * gemm_term_prefill(model, batch_size) / coeffs.effective_tp(tp)
    gemm = gemm_memory + gemm_compute

    # Attention term: KV reads (paper's C5) — ~2 FLOPs per element read
    # keeps arithmetic intensity near 1, always memory-bound; KV shards
    # across TP ranks like the weights.
    attn = coeffs.c5 * attn_term_decode(model, total_context) / tp

    return layers * (gemm + attn + coeffs.c3)


def decode_throughput(
    model: ModelArchitecture,
    coeffs: LatencyCoefficients,
    context_lens: "list[int]",
    tp: int = 1,
) -> float:
    """Decoding throughput in generated tokens/second (Figure 3b)."""
    if not context_lens:
        return 0.0
    return len(context_lens) / decode_step_latency(model, coeffs, context_lens, tp=tp)


def compute_bound_batch_size(
    model: ModelArchitecture, coeffs: LatencyCoefficients
) -> int:
    """Batch size at which decode GEMM compute cost equals the weight-
    streaming cost (§3.2's "approaching compute-bound" threshold).

    Solves ``c1 * B * (4h^2+2hm) = c4 * (4h^2+2hm)``, i.e. ``B = c4/c1``
    — architecture independent, a pure device roofline ratio.
    """
    return max(1, int(coeffs.c4 / coeffs.c1))
