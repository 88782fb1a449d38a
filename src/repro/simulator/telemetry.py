"""Time-series telemetry for simulated instances.

Production serving systems export gauges — queue depth, running batch
size, KV utilization — that operators watch and the replanning profiler
consumes. :class:`TelemetryRecorder` samples any set of named gauges on
a fixed virtual-time cadence and offers summary statistics, so tests
and benchmarks can assert on *dynamics* (e.g. "decode batch size grew
after the burst") rather than only end-state aggregates.

For instantaneous *aggregate* metrics (counters, attainment, goodput)
see :mod:`repro.simulator.metrics`; the recorder complements it by
keeping a time-*series* of any callable — including metrics-registry
reads — on a fixed cadence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .events import Simulation

__all__ = ["GaugeSeries", "GaugeSummary", "TelemetryRecorder"]


@dataclass(frozen=True)
class GaugeSummary:
    """NaN-safe summary statistics of one gauge series.

    Every field is ``nan`` when the series is empty (``count == 0``), so
    callers can format or compare without guarding — unlike an
    exception, ``nan`` propagates harmlessly through arithmetic and
    renders as ``nan`` in reports.
    """

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p90: float
    p99: float


@dataclass
class GaugeSeries:
    """Samples of one gauge: parallel arrays of times and values."""

    name: str
    times: "list[float]"
    values: "list[float]"

    def __len__(self) -> int:
        return len(self.times)

    def summary(self) -> GaugeSummary:
        """NaN-safe statistics; all-``nan`` fields when empty."""
        if not self.values:
            nan = float("nan")
            return GaugeSummary(0, nan, nan, nan, nan, nan, nan)
        arr = np.asarray(self.values, dtype=float)
        p50, p90, p99 = np.percentile(arr, [50, 90, 99])
        return GaugeSummary(
            count=len(arr),
            mean=float(arr.mean()),
            minimum=float(arr.min()),
            maximum=float(arr.max()),
            p50=float(p50),
            p90=float(p90),
            p99=float(p99),
        )

    def mean(self) -> float:
        """Mean of the samples; ``nan`` when the series is empty."""
        return self.summary().mean

    def max(self) -> float:
        """Max of the samples; ``nan`` when the series is empty."""
        return self.summary().maximum

    def percentile(self, q: float) -> float:
        """The q-th percentile; ``nan`` when the series is empty."""
        if not self.values:
            return float("nan")
        return float(np.percentile(self.values, q))

    def value_at(self, time: float) -> float:
        """Last sampled value at or before ``time`` (step interpolation).

        Unlike the summary statistics, this *raises* on an empty series
        or a time before the first sample — asking "what was the value
        at t" has no NaN-safe answer, and silently returning one would
        mask a mis-registered gauge or a query outside the recording.
        """
        if not self.times:
            raise ValueError(f"gauge {self.name!r} has no samples")
        idx = int(np.searchsorted(self.times, time, side="right")) - 1
        if idx < 0:
            raise ValueError(f"no sample of {self.name!r} at or before {time}")
        return self.values[idx]


class TelemetryRecorder:
    """Samples named gauges every ``interval`` seconds of virtual time.

    Usage::

        recorder = TelemetryRecorder(sim, interval=0.5)
        recorder.register("decode_batch", lambda: inst.active_batch_size)
        recorder.start(until=120.0)
        sim.run()
        series = recorder.series("decode_batch")

    .. note:: **Interaction with** ``Simulation.run(max_events=...)``:
       every sample after the first (which runs inline during
       :meth:`start`) is an ordinary scheduled event, so a recorder
       ticking until ``T`` adds ``floor(T / interval)`` events that
       count against any ``max_events`` budget the caller passes to
       :meth:`Simulation.run` — a tight budget can be consumed by
       sampling alone, stopping the run earlier than the workload would.
       Prefer a virtual-time bound (``run(until=...)``) when recording,
       or widen ``max_events`` by the sample count above
       (:attr:`samples_taken` reports it after the fact).
    """

    def __init__(self, sim: Simulation, interval: float = 1.0) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self._sim = sim
        self._interval = interval
        self._gauges: "dict[str, Callable[[], float]]" = {}
        self._series: "dict[str, GaugeSeries]" = {}
        self._running = False
        self._until = 0.0
        #: Samples recorded so far; all but the first are simulation
        #: events counted against any ``max_events`` budget.
        self.samples_taken = 0

    def register(self, name: str, fn: "Callable[[], float]") -> None:
        """Add a gauge; must happen before :meth:`start`."""
        if self._running:
            raise RuntimeError("cannot register gauges after start()")
        if name in self._gauges:
            raise ValueError(f"gauge {name!r} already registered")
        self._gauges[name] = fn
        self._series[name] = GaugeSeries(name=name, times=[], values=[])

    def start(self, until: float) -> None:
        """Begin sampling now and stop after virtual time ``until``."""
        if self._running:
            raise RuntimeError("recorder already started")
        if not self._gauges:
            raise RuntimeError("no gauges registered")
        self._running = True
        self._until = until
        self._sample()

    def _sample(self) -> None:
        now = self._sim.now
        self.samples_taken += 1
        for name, fn in self._gauges.items():
            series = self._series[name]
            series.times.append(now)
            series.values.append(float(fn()))
        if now + self._interval <= self._until:
            self._sim.schedule(self._interval, self._sample)

    def series(self, name: str) -> GaugeSeries:
        """The recorded series for one gauge."""
        if name not in self._series:
            known = ", ".join(sorted(self._series))
            raise KeyError(f"unknown gauge {name!r}; known: {known}")
        return self._series[name]

    def names(self) -> "list[str]":
        return sorted(self._series)
