"""Latency of batches mixing prefill and decoding work.

Colocated systems (Orca-style continuous batching, SARATHI chunked
prefill) execute iterations containing both prompt tokens and decode
tokens. Figure 2 measures exactly this: a decoding batch plus one
prefill request. The cost composes from the Appendix A terms:

* one pass of GEMM compute over *all* tokens in the iteration,
* one pass of weight streaming (shared by everyone in the batch),
* prefill-attention traffic for the prompt tokens,
* KV-read traffic for the decode tokens' contexts.
"""

from __future__ import annotations

from .coefficients import (
    LatencyCoefficients,
    attn_term_decode,
    attn_term_prefill,
    gemm_term_decode,
    gemm_term_prefill,
)
from ..models.architecture import ModelArchitecture

__all__ = ["mixed_batch_latency"]


def mixed_batch_latency(
    model: ModelArchitecture,
    coeffs: LatencyCoefficients,
    prefill_lens: "list[int]",
    decode_context_lens: "list[int]",
    num_layers: "int | None" = None,
    tp: int = 1,
) -> float:
    """Execution time of one iteration batching prefills with decodes.

    Args:
        model: Full (un-sharded) architecture.
        coeffs: Calibrated latency coefficients.
        prefill_lens: Prompt lengths of prefill (sub-)requests in the
            batch; chunked-prefill passes chunk lengths here.
        decode_context_lens: Context lengths of decode requests, each
            contributing one new token.
        num_layers: Layers executed (defaults to full model).
        tp: Tensor-parallel degree.

    Returns:
        Wall-clock seconds for the iteration. With an empty
        ``decode_context_lens`` this equals :func:`prefill_latency`; with
        an empty ``prefill_lens`` it equals :func:`decode_step_latency`.
    """
    if any(length < 0 for length in prefill_lens):
        raise ValueError(f"prefill lengths must be >= 0, got {prefill_lens}")
    if any(length < 0 for length in decode_context_lens):
        raise ValueError(f"context lengths must be >= 0, got {decode_context_lens}")
    if tp <= 0:
        raise ValueError(f"tp must be positive, got {tp}")
    layers = model.num_layers if num_layers is None else num_layers
    if layers <= 0:
        raise ValueError(f"num_layers must be positive, got {layers}")

    # Mixed (combined/chunked) iterations never macro-step: each one is
    # a different prefill+decode shape, so these reductions run once per
    # iteration by design (DESIGN.md §4h).
    prefill_tokens = sum(prefill_lens)
    decode_tokens = len(decode_context_lens)
    total_tokens = prefill_tokens + decode_tokens
    if total_tokens == 0:
        return 0.0
    etp = coeffs.effective_tp(tp)

    # Memory traffic shards perfectly across TP ranks; only compute pays
    # the partition-efficiency penalty (see repro.latency.prefill).
    gemm_compute = coeffs.c1 * gemm_term_prefill(model, total_tokens) / etp
    gemm_memory = coeffs.c4 * gemm_term_decode(model) / tp
    gemm = gemm_compute + gemm_memory

    t2 = float(sum(length * length for length in prefill_lens))
    attn_pre_mem = (
        coeffs.c2 * attn_term_prefill(model, t2, coeffs.attention_block_size) / tp
    )
    attn_pre_cmp = coeffs.c1 * 2.0 * model.hidden_size * t2 / etp
    attn_pre = max(attn_pre_mem, attn_pre_cmp)

    decode_context = float(sum(decode_context_lens))
    attn_dec = coeffs.c5 * attn_term_decode(model, decode_context) / tp

    # Engine iteration overhead is charged once per batch, matching the
    # execution-time wrappers in repro.latency.parallel.
    return layers * (gemm + attn_pre + attn_dec + coeffs.c3) + coeffs.iteration_overhead
