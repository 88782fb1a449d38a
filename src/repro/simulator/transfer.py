"""KV-cache transfer engine with per-link serialization.

Models the orchestration layer's KV-cache transmission (§5): each
physical link carries one transfer at a time (FIFO), so concurrent
migrations queue and burstiness shows up as transfer latency. The
disaggregated engine uses the *pull* policy of §4.3 — the decode side
initiates transfers only when it has memory — which this engine supports
by simply being invoked at pull time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .events import Simulation
from .metrics import Histogram, MetricsRegistry, exponential_buckets
from .profiler import NULL_PROFILER, Profiler
from ..hardware.network import NetworkLink

__all__ = ["TransferEngine", "TransferRecord"]


@dataclass(frozen=True)
class TransferRecord:
    """Completed transfer, for the Figure 10(b) CDF."""

    request_id: int
    num_bytes: float
    start_time: float
    end_time: float

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


class _LinkState:
    """FIFO occupancy of one physical link."""

    def __init__(self) -> None:
        self.busy_until = 0.0


class TransferEngine:
    """Schedules KV-cache migrations over shared links.

    Each distinct :class:`NetworkLink` object is an independent FIFO
    resource; transfers over the same link serialize, transfers over
    different links proceed concurrently.
    """

    def __init__(self, sim: Simulation, profiler: "Profiler | None" = None) -> None:
        self._sim = sim
        self._prof = profiler if profiler is not None else NULL_PROFILER
        self._links: "dict[int, _LinkState]" = {}
        self.records: "list[TransferRecord]" = []
        self.total_bytes = 0.0
        # Instrumentation.
        self.transfers_submitted = 0
        #: Cumulative seconds transfers spent queued behind a busy link —
        #: the burstiness signal of §4.3 (push mode piles up here).
        self.stall_time = 0.0
        self._duration_hist: "Histogram | None" = None

    def instrument(self, registry: MetricsRegistry) -> None:
        """Register transfer counters/histograms (callback-backed)."""
        registry.counter(
            "repro_kv_transfer_bytes_total", "KV-cache bytes migrated",
            fn=lambda: self.total_bytes,
        )
        registry.counter(
            "repro_kv_transfers_total", "KV-cache migrations submitted",
            fn=lambda: self.transfers_submitted,
        )
        registry.counter(
            "repro_kv_transfers_completed_total", "KV-cache migrations finished",
            fn=lambda: len(self.records),
        )
        registry.counter(
            "repro_kv_transfer_stall_seconds_total",
            "Seconds transfers waited for a busy link",
            fn=lambda: self.stall_time,
        )
        self._duration_hist = registry.histogram(
            "repro_kv_transfer_seconds",
            "Wire time of each migration (excludes link queuing)",
            buckets=exponential_buckets(1e-4, 2.0, 16),
        )

    def submit(
        self,
        request_id: int,
        num_bytes: float,
        link: NetworkLink,
        on_done: Callable[[], None],
        num_parallel_channels: int = 1,
    ) -> None:
        """Enqueue a transfer; ``on_done`` fires at completion time.

        Args:
            request_id: For record-keeping.
            num_bytes: Total bytes to move.
            link: The link crossed (keyed by identity — share the object
                to share the resource).
            on_done: Completion callback.
            num_parallel_channels: Independent channels moving disjoint
                shards concurrently (pp stage pairs under Algorithm 2's
                stage-colocated placement), dividing serialization time.
        """
        if num_bytes < 0:
            raise ValueError(f"num_bytes must be >= 0, got {num_bytes}")
        if num_parallel_channels <= 0:
            raise ValueError("num_parallel_channels must be positive")
        state = self._links.setdefault(id(link), _LinkState())
        start = max(self._sim.now, state.busy_until)
        duration = link.time_for(num_bytes / num_parallel_channels)
        assert duration >= 0.0  # link model is nonnegative
        end = start + duration
        state.busy_until = end
        self.total_bytes += num_bytes
        self.transfers_submitted += 1
        self.stall_time += start - self._sim.now
        if self._prof.enabled:
            self._prof.record_transfer(request_id, self._sim.now, start, end)
        if self._duration_hist is not None:
            self._duration_hist.observe(duration)

        def _complete() -> None:
            self.records.append(
                TransferRecord(
                    request_id=request_id,
                    num_bytes=num_bytes,
                    start_time=start,
                    end_time=end,
                )
            )
            on_done()

        self._sim.schedule_at(end, _complete)

    def link_busy_until(self, link: NetworkLink) -> float:
        """When the link frees up (now or earlier if idle)."""
        state = self._links.get(id(link))
        return state.busy_until if state else 0.0
