"""Memoized batch-latency evaluators for the fast-forward kernel.

The per-step simulator hot path evaluates the Appendix A latency model
thousands of times per trial. Each evaluation re-validates its inputs,
re-materializes per-request length lists, and re-sums them — all O(B)
work for an answer that, between batch-membership changes, depends only
on two scalars: the batch size and the total context length.

This module hoists the O(B) work out of the step loop:

* :class:`DecodeStepTimer` — bound to one (model, parallelism, coeffs,
  links) tuple, validated once at construction. Per step it needs only
  ``(batch_size, total_context)``; everything that depends on the batch
  size alone (GEMM terms, all-reduce time, activation transfer) is
  cached in a small dict keyed by batch size.
* :class:`PrefillBatchTimer` — same binding for prefill batches. The
  whole :func:`repro.latency.parallel.prefill_times` chain depends only
  on ``(sum(lens), sum(l*l))``, so results memoize on that pair.

**Exactness contract.** Both evaluators reproduce the reference
functions *bitwise*: every arithmetic expression below mirrors the
operation order and associativity of :func:`decode_step_latency`,
:func:`prefill_latency`, :func:`tp_allreduce_time_per_layer`, and
``_pipeline_times`` exactly, so ``DecodeStepTimer.request_latency(B, T)
== decode_times(..., lens).request_latency`` for any ``lens`` with
``len(lens) == B`` and ``sum(lens) == T``. The parity suite in
``tests/test_kernel.py`` asserts this over randomized inputs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    import numpy.typing as npt

from .coefficients import (
    LatencyCoefficients,
    attn_term_prefill,
    gemm_term_decode,
    gemm_term_prefill,
)
from .parallel import ParallelismConfig, tp_allreduce_time_per_layer
from ..hardware.network import NVLINK, NetworkLink
from ..models.architecture import ModelArchitecture

__all__ = ["DecodeStepTimer", "PrefillBatchTimer"]


class DecodeStepTimer:
    """O(1), bitwise-exact decode step latency from (batch size, total context).

    Mirrors ``decode_times(model, config, coeffs, context_lens, tp_link,
    pp_link).request_latency`` with validation hoisted to construction
    and all batch-size-dependent sub-expressions cached.
    """

    def __init__(
        self,
        model: ModelArchitecture,
        config: ParallelismConfig,
        coeffs: LatencyCoefficients,
        tp_link: NetworkLink = NVLINK,
        pp_link: NetworkLink = NVLINK,
    ) -> None:
        # Hoisted validation: decode_times / decode_step_latency raise
        # these per call; the timer raises them once.
        if not config.is_valid_for(model):
            raise ValueError(f"{config} is invalid for model {model.name}")
        if config.tp <= 0:
            raise ValueError(f"tp must be positive, got {config.tp}")
        if model.num_layers <= 0:
            raise ValueError(f"num_layers must be positive, got {model.num_layers}")
        self._model = model
        self._tp = config.tp
        self._pp = config.pp
        self._tp_link = tp_link
        self._pp_link = pp_link
        self._etp = coeffs.effective_tp(config.tp)
        self._c1 = coeffs.c1
        self._c3 = coeffs.c3
        self._c5 = coeffs.c5
        # 3.0 * h is the prefix of attn_term_decode's left-associated
        # product; reusing it keeps (3.0 * h) * T bitwise identical.
        self._three_hidden = 3.0 * model.hidden_size
        self._gemm_memory = coeffs.c4 * gemm_term_decode(model) / config.tp
        self._num_layers = model.num_layers
        self._layers_slowest = -(-model.num_layers // config.pp)
        self._overhead = coeffs.iteration_overhead
        self._pp_overhead = config.pp * coeffs.iteration_overhead
        # batch_size -> (gemm, comm_per_layer, act_stage, act_request)
        self._by_batch_size: dict[int, tuple[float, float, float, float]] = {}

    def _batch_constants(self, batch_size: int) -> tuple[float, float, float, float]:
        cached = self._by_batch_size.get(batch_size)
        if cached is not None:
            return cached
        gemm_compute = (
            self._c1 * gemm_term_prefill(self._model, batch_size) / self._etp
        )
        gemm = self._gemm_memory + gemm_compute
        comm = tp_allreduce_time_per_layer(
            self._model, batch_size, self._tp, self._tp_link
        )
        act = (
            self._pp_link.time_for(
                batch_size * self._model.activation_bytes_per_token()
            )
            if self._pp > 1
            else 0.0
        )
        entry = (gemm, comm, act, (self._pp - 1) * act)
        self._by_batch_size[batch_size] = entry
        return entry

    def request_latency(self, batch_size: int, total_context: int) -> float:
        """``decode_times(...).request_latency`` for a batch of this shape."""
        if batch_size == 0:
            return 0.0
        gemm, comm, act_stage, act_request = self._batch_constants(batch_size)
        attn = self._c5 * (self._three_hidden * float(total_context)) / self._tp
        per_layer = (gemm + attn + self._c3) + comm
        stage = self._layers_slowest * per_layer + act_stage + self._overhead
        request = self._num_layers * per_layer + act_request + self._pp_overhead
        return max(request, stage)

    def step_latency_fn(self, batch_size: int) -> "Callable[[int], float]":
        """``request_latency`` with the batch size pre-bound.

        For a macro run the batch is fixed and only the context grows, so
        binding every batch-size constant into closure locals removes the
        per-step dict probe and attribute walks. The returned callable is
        bitwise-identical to ``request_latency(batch_size, context)``.
        """
        if batch_size == 0:
            return lambda total_context: 0.0
        gemm, comm, act_stage, act_request = self._batch_constants(batch_size)
        c3 = self._c3
        c5 = self._c5
        three_hidden = self._three_hidden
        tp = self._tp
        layers_slowest = self._layers_slowest
        overhead = self._overhead
        num_layers = self._num_layers
        pp_overhead = self._pp_overhead

        def latency(total_context: int) -> float:
            attn = c5 * (three_hidden * float(total_context)) / tp
            per_layer = (gemm + attn + c3) + comm
            stage = layers_slowest * per_layer + act_stage + overhead
            request = num_layers * per_layer + act_request + pp_overhead
            return max(request, stage)

        return latency

    def step_latency_array_fn(
        self, batch_size: int
    ) -> "Callable[[npt.NDArray[np.int64], npt.NDArray[np.float64]], None]":
        """Array twin of :meth:`step_latency_fn`: ``(contexts, out)``.

        Writes the step latency of each of ``contexts`` into the float64
        array ``out`` (same length). Each element goes through the scalar
        closure's operations in the same order, done in place: numpy's
        elementwise ufuncs round each one as Python's float operators do
        (``a * b == b * a`` and ``a + b == b + a`` bitwise, so operand
        order inside one operation does not matter), and integer contexts
        convert to float64 exactly below 2**53, as ``float()`` does. So
        ``out[i]`` is bitwise ``step_latency_fn(batch_size)(contexts[i])``.
        With one pipeline stage, the stage and request expressions are the
        same operations on the same values (``act`` is 0.0 and
        ``pp * overhead`` is ``overhead``), so their ``max`` is skipped.
        """
        if batch_size == 0:
            def zeros(
                contexts: "npt.NDArray[np.int64]", out: "npt.NDArray[np.float64]"
            ) -> None:
                out.fill(0.0)

            return zeros
        gemm, comm, act_stage, act_request = self._batch_constants(batch_size)
        c3 = self._c3
        c5 = self._c5
        three_hidden = self._three_hidden
        tp = self._tp
        one_stage = self._pp == 1
        layers_slowest = self._layers_slowest
        overhead = self._overhead
        num_layers = self._num_layers
        pp_overhead = self._pp_overhead

        def latencies(
            contexts: "npt.NDArray[np.int64]", out: "npt.NDArray[np.float64]"
        ) -> None:
            np.multiply(contexts, three_hidden, out=out)
            out *= c5
            out /= tp  # attn
            out += gemm
            out += c3
            out += comm  # per_layer
            stage = None if one_stage else layers_slowest * out + act_stage + overhead
            out *= num_layers
            out += act_request
            out += pp_overhead  # request
            if stage is not None:
                np.maximum(out, stage, out=out)

        return latencies


class PrefillBatchTimer:
    """Memoized, bitwise-exact prefill batch execution times.

    ``prefill_times`` depends on its length list only through
    ``t = sum(lens)`` and ``t2 = sum(l * l for l in lens)``; results
    memoize on the ``(t, t2)`` pair. Returns ``(request_latency,
    stage_time)`` tuples equal to the reference :class:`ExecutionTimes`
    fields.
    """

    def __init__(
        self,
        model: ModelArchitecture,
        config: ParallelismConfig,
        coeffs: LatencyCoefficients,
        tp_link: NetworkLink = NVLINK,
        pp_link: NetworkLink = NVLINK,
    ) -> None:
        if not config.is_valid_for(model):
            raise ValueError(f"{config} is invalid for model {model.name}")
        if config.tp <= 0:
            raise ValueError(f"tp must be positive, got {config.tp}")
        if model.num_layers <= 0:
            raise ValueError(f"num_layers must be positive, got {model.num_layers}")
        self._model = model
        self._tp = config.tp
        self._pp = config.pp
        self._tp_link = tp_link
        self._pp_link = pp_link
        self._etp = coeffs.effective_tp(config.tp)
        self._c1 = coeffs.c1
        self._c2 = coeffs.c2
        self._c3 = coeffs.c3
        self._block = coeffs.attention_block_size
        self._gemm_memory = coeffs.c4 * gemm_term_decode(model) / config.tp
        self._num_layers = model.num_layers
        self._layers_slowest = -(-model.num_layers // config.pp)
        self._overhead = coeffs.iteration_overhead
        self._by_shape: dict[tuple[int, float], tuple[float, float]] = {}

    def times(self, total_tokens: int, squared_sum: float) -> tuple[float, float]:
        """``(request_latency, stage_time)`` of a batch with these totals."""
        if total_tokens == 0:
            return (0.0, 0.0)
        key = (total_tokens, squared_sum)
        cached = self._by_shape.get(key)
        if cached is not None:
            return cached
        gemm_compute = (
            self._c1 * gemm_term_prefill(self._model, total_tokens) / self._etp
        )
        gemm = gemm_compute + self._gemm_memory
        attn_memory = (
            self._c2
            * attn_term_prefill(self._model, squared_sum, self._block)
            / self._tp
        )
        attn_compute = (
            self._c1 * 2.0 * self._model.hidden_size * squared_sum / self._etp
        )
        attn = max(attn_memory, attn_compute)
        per_layer = (gemm + attn + self._c3) + tp_allreduce_time_per_layer(
            self._model, total_tokens, self._tp, self._tp_link
        )
        act = (
            self._pp_link.time_for(
                total_tokens * self._model.activation_bytes_per_token()
            )
            if self._pp > 1
            else 0.0
        )
        stage = (
            self._layers_slowest * per_layer
            + (act if self._pp > 1 else 0.0)
            + self._overhead
        )
        request = (
            self._num_layers * per_layer
            + (self._pp - 1) * act
            + self._pp * self._overhead
        )
        entry = (max(request, stage), stage)
        self._by_shape[key] = entry
        return entry
