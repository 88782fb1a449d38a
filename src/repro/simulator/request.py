"""Runtime request state and the per-request latency record.

§6.3 divides a request's lifecycle into five stages — prefill queuing,
prefill execution, transmission, decoding queuing, decoding execution —
and Figure 10 reports their proportions. :class:`RequestState` stamps
every transition so the analysis layer can derive TTFT, TPOT, and the
full breakdown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from ..workload.trace import Request

__all__ = ["RequestPhase", "RequestState", "RequestRecord"]


class RequestPhase(Enum):
    """Lifecycle phases of a request inside a serving system."""

    WAITING_PREFILL = "waiting_prefill"
    PREFILLING = "prefilling"
    TRANSFERRING = "transferring"
    WAITING_DECODE = "waiting_decode"
    DECODING = "decoding"
    FINISHED = "finished"


@dataclass(eq=False)
class RequestState:
    """Mutable per-request simulation state.

    States compare and hash by identity: each is one live request, and
    instances key their batches by it.

    Attributes:
        request: The immutable workload description.
        phase: Current lifecycle phase.
        generated: Output tokens produced so far (prefill's first token
            counts as 1).
        timestamps: Transition times, keyed by stage-boundary name.
        token_times: Completion time of each output token (first token is
            the prefill completion).

    While the request sits in a fast-kernel decode batch, ``generated``
    and ``token_times`` lag; the decode instance writes them back when
    the request leaves the batch (DESIGN §4h).
    """

    request: Request
    phase: RequestPhase = RequestPhase.WAITING_PREFILL
    generated: int = 0
    timestamps: "dict[str, float]" = field(default_factory=dict)
    token_times: "list[float]" = field(default_factory=list)
    #: Set after a failure loses this request's KV cache: the next
    #: prefill recomputes this many tokens (prompt + generated so far)
    #: instead of just the prompt.
    recompute_len: "int | None" = None
    #: Absolute completion deadline used by the ``edf`` queue policy;
    #: ``None`` means the policy assumes arrival + its default window.
    deadline: "float | None" = None

    @property
    def request_id(self) -> int:
        return self.request.request_id

    @property
    def context_len(self) -> int:
        """Current attention context: prompt plus generated tokens."""
        return self.request.input_len + self.generated

    @property
    def remaining_tokens(self) -> int:
        """Output tokens still to generate."""
        return self.request.output_len - self.generated

    @property
    def prefill_len(self) -> int:
        """Tokens the next prefill pass must process (recompute-aware)."""
        return self.recompute_len if self.recompute_len is not None else self.request.input_len

    def stamp(self, name: str, time: float) -> None:
        """Record a lifecycle transition time (first write wins)."""
        self.timestamps.setdefault(name, time)

    def record_token(self, time: float) -> None:
        """Record completion of one output token."""
        if self.generated >= self.request.output_len:
            raise RuntimeError(
                f"request {self.request_id} already generated all "
                f"{self.request.output_len} tokens"
            )
        self.generated += 1
        self.token_times.append(time)

    def record_tokens(self, times: "list[float]") -> None:
        """Record completion of several output tokens at once.

        Equivalent to calling :meth:`record_token` for each element of
        ``times`` in order — the fast-forward kernel's bulk primitive.
        """
        count = len(times)
        if self.generated + count > self.request.output_len:
            raise RuntimeError(
                f"request {self.request_id} cannot generate {count} more "
                f"tokens past {self.generated}/{self.request.output_len}"
            )
        self.generated += count
        self.token_times.extend(times)

    @property
    def is_finished(self) -> bool:
        return self.generated >= self.request.output_len

    def to_record(self) -> "RequestRecord":
        """Freeze the state into an immutable analysis record.

        Raises:
            RuntimeError: if the request has not finished.
        """
        if not self.is_finished:
            raise RuntimeError(f"request {self.request_id} not finished")
        arrival = self.request.arrival_time
        ttft = self.token_times[0] - arrival
        if self.request.output_len > 1:
            tpot = (self.token_times[-1] - self.token_times[0]) / (
                self.request.output_len - 1
            )
        else:
            tpot = 0.0
        ts = self.timestamps
        prefill_start = ts.get("prefill_start", arrival)
        prefill_end = ts.get("prefill_end", prefill_start)
        transfer_end = ts.get("transfer_end", prefill_end)
        decode_start = ts.get("decode_start", transfer_end)
        finish = self.token_times[-1]
        return RequestRecord(
            request_id=self.request_id,
            arrival_time=arrival,
            input_len=self.request.input_len,
            output_len=self.request.output_len,
            ttft=ttft,
            tpot=tpot,
            finish_time=finish,
            prefill_queue_time=max(0.0, prefill_start - arrival),
            prefill_exec_time=max(0.0, prefill_end - prefill_start),
            transfer_time=max(0.0, transfer_end - prefill_end),
            decode_queue_time=max(0.0, decode_start - transfer_end),
            decode_exec_time=max(0.0, finish - decode_start),
        )


@dataclass(frozen=True)
class RequestRecord:
    """Immutable per-request latency record (the analysis-layer currency).

    ``prefill_queue_time + prefill_exec_time + transfer_time +
    decode_queue_time + decode_exec_time`` equals the end-to-end latency;
    these are the five stages of Figure 10's breakdown.
    """

    request_id: int
    arrival_time: float
    input_len: int
    output_len: int
    ttft: float
    tpot: float
    finish_time: float
    prefill_queue_time: float
    prefill_exec_time: float
    transfer_time: float
    decode_queue_time: float
    decode_exec_time: float

    def __post_init__(self) -> None:
        if self.ttft < 0 or self.tpot < 0:
            raise ValueError(f"negative latency in record {self.request_id}")
        for name in (
            "prefill_queue_time",
            "prefill_exec_time",
            "transfer_time",
            "decode_queue_time",
            "decode_exec_time",
        ):
            if getattr(self, name) < 0 or math.isnan(getattr(self, name)):
                raise ValueError(f"invalid {name} in record {self.request_id}")

    @property
    def end_to_end_latency(self) -> float:
        """Total sojourn from arrival to last token."""
        return self.finish_time - self.arrival_time

    def meets(self, ttft_slo: float, tpot_slo: float) -> bool:
        """Whether both SLOs are attained."""
        return self.ttft <= ttft_slo and self.tpot <= tpot_slo
