"""Cluster-wide metrics registry and online SLO-attainment monitoring.

DistServe's central quantity is *goodput* — the rate of requests served
within both latency SLOs (§2, §3) — yet attainment is usually computed
offline after a run. This module provides the live counterpart:

* a typed metrics registry (:class:`Counter`, :class:`Gauge`,
  :class:`Histogram` with fixed exponential buckets, grouped into
  labelled families by :class:`MetricsRegistry`) that the whole stack
  instruments itself against, whose counters and gauges
  :meth:`MetricsRegistry.sample` reads on a virtual-time cadence into
  :class:`MetricSamples` — the registry's time axis — and
* :class:`SloMonitor`, which maintains sliding-window TTFT/TPOT
  attainment, per-objective goodput, and violation streaks in *virtual*
  time as requests complete.

Everything is deterministic under a fixed seed: metric families and
children export in sorted order, histogram buckets are fixed at
registration, and no wall-clock time is ever read — so two runs of the
same seeded workload serialize to byte-identical Prometheus text (the
exporters live in :mod:`repro.analysis.metrics_export`).

Metrics are pull-oriented: most instruments are *callback-backed*,
reading an existing counter attribute (``busy_time``, ``preemptions``)
or live structure (queue depth, KV blocks) only when a value is
requested, so instrumentation adds no hot-path cost to the simulator.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Iterable

from .events import Simulation
from ..workload.slos import SLO
from ..workload.trace import Request

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricSamples",
    "MetricsRegistry",
    "exponential_buckets",
    "DEFAULT_LATENCY_BUCKETS",
    "AttainmentSnapshot",
    "SloMonitor",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def exponential_buckets(start: float, factor: float, count: int) -> "tuple[float, ...]":
    """``count`` bucket upper bounds: start, start*factor, ... (Prometheus style).

    Fixed at registration time so histogram output is seed-deterministic
    regardless of the values observed.
    """
    if start <= 0:
        raise ValueError(f"start must be positive, got {start}")
    if factor <= 1:
        raise ValueError(f"factor must be > 1, got {factor}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return tuple(start * factor**i for i in range(count))


#: 1 ms .. ~131 s in powers of two — covers TTFT and TPOT across every
#: model/SLO pair of Table 1.
DEFAULT_LATENCY_BUCKETS = exponential_buckets(0.001, 2.0, 18)


class Counter:
    """Monotonically non-decreasing value.

    Either incremented via :meth:`inc` or *callback-backed* (``fn``), in
    which case the value is read from the callback at collection time —
    the idiom for exporting an instrumentation attribute a component
    already maintains (e.g. ``busy_time``).
    """

    kind = "counter"

    def __init__(self, fn: "Callable[[], float] | None" = None) -> None:
        self._value = 0.0
        self._fn = fn

    def inc(self, amount: float = 1.0) -> None:
        if self._fn is not None:
            raise RuntimeError("cannot inc() a callback-backed counter")
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self._value += amount

    @property
    def value(self) -> float:
        return float(self._fn()) if self._fn is not None else self._value


class Gauge:
    """Value that can go up and down; optionally callback-backed."""

    kind = "gauge"

    def __init__(self, fn: "Callable[[], float] | None" = None) -> None:
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise RuntimeError("cannot set() a callback-backed gauge")
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if self._fn is not None:
            raise RuntimeError("cannot inc() a callback-backed gauge")
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return float(self._fn()) if self._fn is not None else self._value


class Histogram:
    """Cumulative-bucket histogram with *fixed* upper bounds.

    Bucket bounds are frozen at construction (default
    :data:`DEFAULT_LATENCY_BUCKETS`) so the exported text depends only on
    the observations, never on insertion order or dynamic resizing —
    the determinism guarantee the golden-export CI job relies on.
    """

    kind = "histogram"

    def __init__(self, buckets: "Iterable[float] | None" = None) -> None:
        bounds = tuple(buckets) if buckets is not None else DEFAULT_LATENCY_BUCKETS
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        self.bounds = bounds
        self.bucket_counts = [0] * len(bounds)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        # Prometheus `le` semantics: a value landing exactly on a bound
        # belongs to that bucket. bisect_left finds the first bound not
        # < value; the explicit `<=` re-check keeps NaN out of every
        # finite bucket (it still counts toward +Inf via self.count).
        i = bisect_left(self.bounds, value)
        if i < len(self.bounds) and value <= self.bounds[i]:
            self.bucket_counts[i] += 1

    def cumulative_counts(self) -> "list[int]":
        """Per-bucket cumulative counts (Prometheus ``le`` semantics)."""
        out, running = [], 0
        for c in self.bucket_counts:
            running += c
            out.append(running)
        return out


def _label_values(
    labelnames: "tuple[str, ...]", labels: "dict[str, str] | None"
) -> "tuple[str, ...]":
    """A child's key in its family: its label values in name order."""
    labels = labels or {}
    return tuple(str(labels[k]) for k in labelnames)


@dataclass
class MetricFamily:
    """All children of one metric name, keyed by label values."""

    name: str
    kind: str
    help: str
    labelnames: "tuple[str, ...]"
    children: "dict[tuple[str, ...], Counter | Gauge | Histogram]"


class MetricsRegistry:
    """Typed registry of metric families shared across the whole stack.

    Registration is idempotent: asking for an existing ``(name, labels)``
    pair returns the same metric object, so components may instrument
    themselves unconditionally. Conflicting re-registration (different
    kind or label names for one family) raises.
    """

    def __init__(self) -> None:
        self._families: "dict[str, MetricFamily]" = {}

    # ------------------------------------------------------------------
    def counter(
        self,
        name: str,
        help: str = "",
        labels: "dict[str, str] | None" = None,
        fn: "Callable[[], float] | None" = None,
    ) -> Counter:
        return self._register(name, "counter", help, labels, lambda: Counter(fn=fn))

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: "dict[str, str] | None" = None,
        fn: "Callable[[], float] | None" = None,
    ) -> Gauge:
        return self._register(name, "gauge", help, labels, lambda: Gauge(fn=fn))

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: "dict[str, str] | None" = None,
        buckets: "Iterable[float] | None" = None,
    ) -> Histogram:
        bounds = tuple(buckets) if buckets is not None else None
        return self._register(
            name, "histogram", help, labels, lambda: Histogram(buckets=bounds)
        )

    # ------------------------------------------------------------------
    def _register(
        self,
        name: str,
        kind: str,
        help: str,
        labels: "dict[str, str] | None",
        make: "Callable[[], Counter | Gauge | Histogram]",
    ) -> "Any":
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        labels = labels or {}
        for key in labels:
            if not _LABEL_RE.match(key):
                raise ValueError(f"invalid label name {key!r}")
        labelnames = tuple(sorted(labels))
        labelvalues = _label_values(labelnames, labels)
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, kind, help, labelnames, {})
            self._families[name] = family
        else:
            if family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}, "
                    f"not {kind}"
                )
            if family.labelnames != labelnames:
                raise ValueError(
                    f"metric {name!r} has label names {family.labelnames}, "
                    f"got {labelnames}"
                )
        child = family.children.get(labelvalues)
        if child is None:
            child = make()
            family.children[labelvalues] = child
        return child

    # ------------------------------------------------------------------
    def families(self) -> "list[MetricFamily]":
        """All families, sorted by name (the export order)."""
        return [self._families[n] for n in sorted(self._families)]

    def get(
        self, name: str, labels: "dict[str, str] | None" = None
    ) -> "Counter | Gauge | Histogram":
        """Look up an existing metric; raises ``KeyError`` if absent."""
        family = self._families[name]
        return family.children[_label_values(family.labelnames, labels)]

    def sample(
        self, sim: Simulation, interval: float, until: float
    ) -> "MetricSamples":
        """Read every counter and gauge now, then every ``interval``
        virtual seconds while the next reading falls at or before
        ``until``.

        Only children registered before this call are read. Every
        reading after the first is a scheduled event and counts against
        a ``Simulation.run(max_events=...)`` budget: sampling alone can
        exhaust a tight one. Prefer ``run(until=...)`` when sampling, or
        widen the budget by the number of readings
        (``len(samples.times) - 1``).
        """
        return MetricSamples(sim, self, interval, until)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def __len__(self) -> int:
        return len(self._families)


class MetricSamples:
    """Readings of a registry's counters and gauges on a fixed cadence.

    Built by :meth:`MetricsRegistry.sample`. Every reading reads all
    sampled children at one virtual instant: ``times[i]`` is that
    instant and ``series[name][labelvalues][i]`` a child's value then.
    Histograms are not sampled.
    """

    def __init__(
        self,
        sim: Simulation,
        registry: MetricsRegistry,
        interval: float,
        until: float,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self._sim = sim
        self._interval = interval
        self._until = until
        self.times: "list[float]" = []
        self.series: "dict[str, dict[tuple[str, ...], list[float]]]" = {}
        self._labelnames: "dict[str, tuple[str, ...]]" = {}
        self._reads: "list[tuple[list[float], Counter | Gauge]]" = []
        for family in registry.families():
            for labelvalues, child in family.children.items():
                if isinstance(child, Histogram):
                    continue
                values: "list[float]" = []
                self.series.setdefault(family.name, {})[labelvalues] = values
                self._labelnames[family.name] = family.labelnames
                self._reads.append((values, child))
        self._sample()

    def _sample(self) -> None:
        now = self._sim.now
        self.times.append(now)
        for values, child in self._reads:
            values.append(child.value)
        if now + self._interval <= self._until:
            self._sim.schedule(self._interval, self._sample)

    def get(
        self, name: str, labels: "dict[str, str] | None" = None
    ) -> "list[float]":
        """One child's readings; raises ``KeyError`` if it was not sampled."""
        return self.series[name][_label_values(self._labelnames[name], labels)]


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AttainmentSnapshot:
    """Attainment fractions over some set of completed requests.

    Field-compatible with :class:`repro.analysis.slo.AttainmentReport`
    (the offline computation) so the two can be compared directly; the
    monitor's cumulative snapshot matches it exactly for the same
    records.
    """

    total: float
    ttft_only: float
    tpot_only: float
    num_requests: int


class SloMonitor:
    """Online, windowed SLO-attainment and goodput monitor.

    Observes arrivals and completions as they happen in virtual time and
    maintains:

    * **cumulative attainment** — identical to the offline
      :func:`repro.analysis.slo.slo_attainment` over the same records;
    * **windowed attainment** over the trailing ``window`` seconds of
      completions (the operator's "is the system healthy *now*" view);
    * **per-objective goodput** — completions/second in the window
      meeting both SLOs (total), the TTFT SLO (prefill-phase health) or
      the TPOT SLO (decode-phase health);
    * **violation streaks** — current and longest runs of consecutive
      completions missing at least one SLO.

    When given a ``registry``, the monitor registers callback-backed
    gauges/counters plus TTFT/TPOT histograms under the ``repro_slo_*``
    and ``repro_goodput_*`` names, so exports carry the attainment view
    without extra wiring.

    Args:
        sim: The simulation supplying virtual time.
        slo: TTFT/TPOT objectives to judge completions against.
        window: Sliding-window span, virtual seconds.
        registry: Optional registry to self-register metrics in.
    """

    def __init__(
        self,
        sim: Simulation,
        slo: SLO,
        window: float = 60.0,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self._sim = sim
        self.slo = slo
        self.window = window
        # (completion time, ttft_ok, tpot_ok) over the trailing window.
        self._completions: "Deque[tuple[float, bool, bool]]" = deque()
        # Cumulative tallies (never evicted).
        self.arrived = 0
        self.completed = 0
        self._ok_both = 0
        self._ok_ttft = 0
        self._ok_tpot = 0
        # Violation streaks (a violation = missing either SLO).
        self.violation_streak = 0
        self.longest_violation_streak = 0
        self._ttft_hist: "Histogram | None" = None
        self._tpot_hist: "Histogram | None" = None
        if registry is not None:
            self._register_metrics(registry)

    # ------------------------------------------------------------------
    def _register_metrics(self, registry: MetricsRegistry) -> None:
        registry.counter(
            "repro_slo_arrivals_total",
            "Requests observed arriving by the SLO monitor",
            fn=lambda: self.arrived,
        )
        registry.counter(
            "repro_slo_completions_total",
            "Completions judged by the SLO monitor",
            fn=lambda: self.completed,
        )
        for objective, fn in (
            ("total", lambda: self.completed - self._ok_both),
            ("ttft", lambda: self.completed - self._ok_ttft),
            ("tpot", lambda: self.completed - self._ok_tpot),
        ):
            registry.counter(
                "repro_slo_violations_total",
                "Completions missing the objective (total = either)",
                labels={"objective": objective},
                fn=fn,
            )
        for objective in ("total", "ttft", "tpot"):
            registry.gauge(
                "repro_slo_attainment_window",
                "Attainment over the trailing window",
                labels={"objective": objective},
                fn=lambda o=objective: getattr(
                    self.windowed_attainment(),
                    {"total": "total", "ttft": "ttft_only", "tpot": "tpot_only"}[o],
                ),
            )
            registry.gauge(
                "repro_slo_attainment_cumulative",
                "Attainment since the start of the run",
                labels={"objective": objective},
                fn=lambda o=objective: getattr(
                    self.cumulative_attainment(),
                    {"total": "total", "ttft": "ttft_only", "tpot": "tpot_only"}[o],
                ),
            )
            registry.gauge(
                "repro_goodput_window_rps",
                "SLO-attaining completions per second over the window",
                labels={"objective": objective},
                fn=lambda o=objective: self.windowed_goodput()[o],
            )
        registry.gauge(
            "repro_slo_violation_streak",
            "Consecutive completions missing at least one SLO",
            fn=lambda: self.violation_streak,
        )
        registry.gauge(
            "repro_slo_violation_streak_max",
            "Longest violation streak seen",
            fn=lambda: self.longest_violation_streak,
        )
        self._ttft_hist = registry.histogram(
            "repro_ttft_seconds", "Time to first token of completed requests"
        )
        self._tpot_hist = registry.histogram(
            "repro_tpot_seconds", "Time per output token of completed requests"
        )

    # ------------------------------------------------------------------
    def observe_arrival(self, request: Request) -> None:
        """Count one arriving request."""
        self.arrived += 1

    def observe_completion(self, ttft: float, tpot: float) -> None:
        """Judge one completed request's TTFT and TPOT against the SLOs."""
        ttft_ok = ttft <= self.slo.ttft
        tpot_ok = tpot <= self.slo.tpot
        self.completed += 1
        self._ok_ttft += ttft_ok
        self._ok_tpot += tpot_ok
        self._ok_both += ttft_ok and tpot_ok
        if ttft_ok and tpot_ok:
            self.violation_streak = 0
        else:
            self.violation_streak += 1
            self.longest_violation_streak = max(
                self.longest_violation_streak, self.violation_streak
            )
        if self._ttft_hist is not None and self._tpot_hist is not None:
            self._ttft_hist.observe(ttft)
            self._tpot_hist.observe(tpot)
        self._completions.append((self._sim.now, ttft_ok, tpot_ok))
        self._evict()

    def _evict(self) -> None:
        cutoff = self._sim.now - self.window
        while self._completions and self._completions[0][0] <= cutoff:
            self._completions.popleft()

    # ------------------------------------------------------------------
    def windowed_attainment(self) -> AttainmentSnapshot:
        """Attainment over completions in the trailing window.

        An empty window reports perfect attainment (there is nothing to
        violate), mirroring the offline convention for zero records.
        """
        self._evict()
        n = len(self._completions)
        if n == 0:
            return AttainmentSnapshot(1.0, 1.0, 1.0, 0)
        ttft = sum(1 for _, t, _p in self._completions if t)
        tpot = sum(1 for _, _t, p in self._completions if p)
        both = sum(1 for _, t, p in self._completions if t and p)
        return AttainmentSnapshot(both / n, ttft / n, tpot / n, n)

    def cumulative_attainment(self) -> AttainmentSnapshot:
        """Attainment over every completion observed so far.

        Matches :func:`repro.analysis.slo.slo_attainment` exactly when
        fed the same records (same ``<=`` comparisons, same counts).
        """
        if self.completed == 0:
            return AttainmentSnapshot(1.0, 1.0, 1.0, 0)
        n = self.completed
        return AttainmentSnapshot(
            self._ok_both / n, self._ok_ttft / n, self._ok_tpot / n, n
        )

    def windowed_goodput(self) -> "dict[str, float]":
        """SLO-attaining completions/second over the trailing window.

        Keys: ``total`` (both SLOs — the paper's goodput), ``ttft``
        (prefill-phase health), ``tpot`` (decode-phase health). The
        divisor is the elapsed span, capped at the window length, so
        early in a run goodput is not diluted by time that has not
        passed yet.
        """
        self._evict()
        span = min(self.window, self._sim.now)
        if span <= 0:
            return {"total": 0.0, "ttft": 0.0, "tpot": 0.0}
        ttft = sum(1 for _, t, _p in self._completions if t)
        tpot = sum(1 for _, _t, p in self._completions if p)
        both = sum(1 for _, t, p in self._completions if t and p)
        return {"total": both / span, "ttft": ttft / span, "tpot": tpot / span}

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-line operator summary of the current window."""
        att = self.windowed_attainment()
        gp = self.windowed_goodput()
        return (
            f"window[{self.window:g}s] attainment "
            f"total={att.total:.1%} ttft={att.ttft_only:.1%} "
            f"tpot={att.tpot_only:.1%} (n={att.num_requests}) | "
            f"goodput {gp['total']:.2f} req/s | "
            f"violation streak {self.violation_streak} "
            f"(max {self.longest_violation_streak})"
        )
