"""Latency breakdown across the five lifecycle stages (§6.3, Figure 10).

"We divide the processing lifecycle of a request in DistServe into five
stages: prefill queuing, prefill execution, transmission, decoding
queuing, and decoding execution. The total time consumed by all requests
in each stage is then summed up to determine their respective
proportions in the system's total execution time."

:func:`latency_breakdown` sums the stage scalars of
:class:`~repro.simulator.request.RequestRecord` (timestamps reconstructed
at completion). The decomposition of the ground-truth span timeline is
:func:`repro.analysis.critpath.critical_paths`, whose seven phases refine
these five stages (``dispatch`` and the KV ``kv_wait``/``kv_transmit``
split).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..simulator.request import RequestRecord

__all__ = [
    "LatencyBreakdown",
    "latency_breakdown",
    "STAGES",
]

STAGES = (
    "prefill_queue",
    "prefill_exec",
    "transfer",
    "decode_queue",
    "decode_exec",
)


@dataclass(frozen=True)
class LatencyBreakdown:
    """Aggregate seconds spent in each stage, plus fraction helpers."""

    prefill_queue: float
    prefill_exec: float
    transfer: float
    decode_queue: float
    decode_exec: float

    @property
    def total(self) -> float:
        return (
            self.prefill_queue
            + self.prefill_exec
            + self.transfer
            + self.decode_queue
            + self.decode_exec
        )

    def fractions(self) -> "dict[str, float]":
        """Stage proportions of total lifecycle time (Figure 10a)."""
        total = self.total
        if total == 0:
            return {stage: 0.0 for stage in STAGES}
        return {
            "prefill_queue": self.prefill_queue / total,
            "prefill_exec": self.prefill_exec / total,
            "transfer": self.transfer / total,
            "decode_queue": self.decode_queue / total,
            "decode_exec": self.decode_exec / total,
        }


def latency_breakdown(records: "list[RequestRecord]") -> LatencyBreakdown:
    """Sum each stage's time over all requests (the Figure 10a statistic)."""
    return LatencyBreakdown(
        prefill_queue=math.fsum(r.prefill_queue_time for r in records),
        prefill_exec=math.fsum(r.prefill_exec_time for r in records),
        transfer=math.fsum(r.transfer_time for r in records),
        decode_queue=math.fsum(r.decode_queue_time for r in records),
        decode_exec=math.fsum(r.decode_exec_time for r in records),
    )
