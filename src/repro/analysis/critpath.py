"""Critical-path decomposition, utilization timelines, and run diffing.

The tracing layer records *what happened* to each request; the metrics
layer records *how the cluster is doing*; this module answers *why*: it
decomposes each completed request's end-to-end latency into the phases a
goodput engineer can act on — dispatch, prefill queueing, prefill
execution, KV-transfer wait vs transmit, decode queueing, decode
execution — and attributes cluster time per instance to busy / idle /
blocked-on-transfer, the accounting behind Figure 10 and §3.1's
interference argument.

Four layers of machinery:

* :func:`critical_paths` — per-request decomposition from the span
  stream (plus the profiler's transfer events when available, which
  split the KV-transfer span into link *wait* vs wire *transmit*).
  Decode execution is the residual against end-to-end latency, so the
  ``math.fsum`` of all phases reconciles with ``completion - arrival``
  to within 1e-9 — a property test enforces this. It is the only
  request decomposition: a
  :class:`~repro.simulator.request.RequestRecord` carries the path's
  arrival, TTFT, TPOT and finish time and no phases.
* :func:`latency_breakdown` — Figure 10a's five lifecycle stages
  (:data:`STAGES`), a coarser view of the paths: ``dispatch`` folds into
  prefill queueing and ``kv_wait``/``kv_transmit`` into transfer.
* :func:`build_profile` — the full deterministic report: aggregate
  phase totals, TTFT/TPOT distributions with per-phase TTFT breakdown,
  per-instance utilization timelines and batch-occupancy histograms
  (from the :class:`~repro.simulator.profiler.Profiler` event streams),
  and the colocated-mode interference attribution (prefill iterations
  that ran while decodes were mid-generation on the same replica).
* :func:`diff_profiles` — the differential comparator: aligns two
  same-seed runs by request id and attributes the TTFT / TPOT / e2e
  deltas to phase-level shifts, the "why is B slower than A" answer.

Everything is computed with sorted iteration orders and ``fsum``
accumulation, so a fixed-seed run renders byte-identical reports —
pinned by a golden fixture and a CI double-run diff. The passes over the
span and exec-event streams unpack their tuples rather than reading
attributes, and every running float sum adds in stream order; a
:class:`RequestCriticalPath` is an immutable tuple too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from html import escape
from typing import Any, NamedTuple

from ..simulator.profiler import Profiler
from ..simulator.tracing import Span, SpanKind, spans_by_request

__all__ = [
    "PHASES",
    "STAGES",
    "TTFT_PHASES",
    "PROFILE_SCHEMA",
    "PROFILE_DIFF_SCHEMA",
    "RequestCriticalPath",
    "critical_paths",
    "LatencyBreakdown",
    "latency_breakdown",
    "build_profile",
    "diff_profiles",
    "profile_to_json",
    "format_profile",
    "format_profile_diff",
    "profile_to_html",
]

#: Critical-path phases, in lifecycle order. ``decode_exec`` is the
#: residual against end-to-end latency, so the phases always reconcile.
PHASES = (
    "dispatch",
    "prefill_queue",
    "prefill_exec",
    "kv_wait",
    "kv_transmit",
    "decode_queue",
    "decode_exec",
)

#: Figure 10a's lifecycle stages (§6.3), each a sum of critical-path
#: phases: ``prefill_queue`` is ``dispatch + prefill_queue`` and
#: ``transfer`` is ``kv_wait + kv_transmit``; the rest map one to one.
STAGES = (
    "prefill_queue",
    "prefill_exec",
    "transfer",
    "decode_queue",
    "decode_exec",
)

#: TTFT decomposition phases. ``ttft_other`` is the residual within the
#: arrival→first-token window not covered by the named phases.
TTFT_PHASES = ("dispatch", "prefill_queue", "prefill_exec", "ttft_other")

PROFILE_SCHEMA = "repro-profile/2"
PROFILE_DIFF_SCHEMA = "repro-profile-diff/1"

class RequestCriticalPath(NamedTuple):
    """One completed request's critical-path decomposition.

    ``fsum(phases aligned with PHASES)`` equals
    ``completion_time - arrival_time`` to within 1e-9 by construction:
    ``decode_exec`` absorbs the residual (and the tracked phases never
    overlap, so the residual is nonnegative up to float rounding). An
    immutable tuple, like a :class:`~repro.simulator.tracing.Span`: a
    profiled pass builds one per completed request.
    """

    request_id: int
    arrival_time: float
    first_token_time: float
    completion_time: float
    dispatch: float
    prefill_queue: float
    prefill_exec: float
    kv_wait: float
    kv_transmit: float
    decode_queue: float
    decode_exec: float
    #: TTFT decomposition aligned with :data:`TTFT_PHASES`.
    ttft_breakdown: "tuple[float, ...]"
    #: Output tokens the ``decode`` spans account for (the highest
    #: ``token_index`` plus one).
    num_tokens: int

    @property
    def end_to_end_latency(self) -> float:
        return self.completion_time - self.arrival_time

    @property
    def ttft(self) -> float:
        return self.first_token_time - self.arrival_time

    @property
    def tpot(self) -> float:
        if self.num_tokens < 2:
            return 0.0
        return (self.completion_time - self.first_token_time) / (self.num_tokens - 1)

    def phase_values(self) -> "tuple[float, ...]":
        """Phase durations aligned with :data:`PHASES`."""
        return (
            self.dispatch,
            self.prefill_queue,
            self.prefill_exec,
            self.kv_wait,
            self.kv_transmit,
            self.decode_queue,
            self.decode_exec,
        )

    @property
    def phase_sum(self) -> float:
        """Exact (fsum) total of all phases; reconciles with e2e latency."""
        return math.fsum(self.phase_values())


def _clip(start: float, end: float, lo: float, hi: float) -> float:
    """Length of ``[start, end] ∩ [lo, hi]``."""
    return max(0.0, min(end, hi) - max(start, lo))


def critical_paths(
    spans: "list[Span]",
    transfer_events: "list[tuple[int, float, float, float]] | None" = None,
) -> "list[RequestCriticalPath]":
    """Decompose every completed request's latency into its phases.

    Args:
        spans: The tracer's span stream (any order).
        transfer_events: The profiler's ``(request_id, submitted, start,
            end)`` stream; when given, the KV-transfer span splits into
            link-queue *wait* and wire *transmit*. Without it the whole
            span counts as transmit.

    Only requests with both ``arrival`` and ``completion`` spans are
    decomposed. Results are sorted by request id.
    """
    wire_time: "dict[int, float]" = {}
    if transfer_events:
        for request_id, _submitted, start, end in transfer_events:
            wire_time[request_id] = wire_time.get(request_id, 0.0) + (end - start)

    out: "list[RequestCriticalPath]" = []
    for request_id, request_spans in spans_by_request(spans).items():
        arrival = completion = None
        first_start: "float | None" = None
        queue_total = exec_total = kv_total = dq_total = 0.0
        decode_ends: "list[tuple[int, float]]" = []
        window_spans: "list[tuple[str, float, float]]" = []
        for _rid, kind, start, end, _instance, _batch, token_index in request_spans:
            if kind == SpanKind.ARRIVAL:
                arrival = start
                continue
            if kind == SpanKind.COMPLETION:
                completion = end
                continue
            if kind in SpanKind.INSTANT:
                continue
            if first_start is None or start < first_start:
                first_start = start
            if kind == SpanKind.PREFILL_QUEUE:
                queue_total += end - start
                window_spans.append((kind, start, end))
            elif kind == SpanKind.PREFILL_EXEC:
                exec_total += end - start
                window_spans.append((kind, start, end))
            elif kind == SpanKind.KV_TRANSFER:
                kv_total += end - start
            elif kind == SpanKind.DECODE_QUEUE:
                dq_total += end - start
            elif kind == SpanKind.DECODE:
                decode_ends.append((token_index, end))
        if arrival is None or completion is None or not decode_ends:
            continue
        first_token = min(decode_ends)[1]

        dispatch = max(0.0, (first_start if first_start is not None else arrival) - arrival)
        transmit_raw = wire_time.get(request_id)
        if transmit_raw is None:
            kv_wait, kv_transmit = 0.0, kv_total
        else:
            kv_wait = max(0.0, kv_total - transmit_raw)
            kv_transmit = kv_total - kv_wait
        covered = math.fsum(
            (dispatch, queue_total, exec_total, kv_wait, kv_transmit, dq_total)
        )
        decode_exec = max(0.0, (completion - arrival) - covered)

        # TTFT decomposition: clip the queue/exec spans to the
        # arrival→first-token window; the residual is whatever else the
        # window contains (zero in the current systems, where the first
        # token is emitted at prefill completion).
        ttft = first_token - arrival
        pq_window = pe_window = 0.0
        for kind, start, end in window_spans:
            part = _clip(start, end, arrival, first_token)
            if kind == SpanKind.PREFILL_QUEUE:
                pq_window += part
            else:
                pe_window += part
        dispatch_window = min(dispatch, ttft)
        ttft_other = ttft - math.fsum((dispatch_window, pq_window, pe_window))
        out.append(
            RequestCriticalPath(
                request_id=request_id,
                arrival_time=arrival,
                first_token_time=first_token,
                completion_time=completion,
                dispatch=dispatch,
                prefill_queue=queue_total,
                prefill_exec=exec_total,
                kv_wait=kv_wait,
                kv_transmit=kv_transmit,
                decode_queue=dq_total,
                decode_exec=decode_exec,
                ttft_breakdown=(dispatch_window, pq_window, pe_window, ttft_other),
                num_tokens=max(decode_ends)[0] + 1,
            )
        )
    out.sort(key=lambda path: path.request_id)
    return out


@dataclass(frozen=True)
class LatencyBreakdown:
    """Seconds all requests spent in each of :data:`STAGES`."""

    prefill_queue: float
    prefill_exec: float
    transfer: float
    decode_queue: float
    decode_exec: float

    @property
    def total(self) -> float:
        return math.fsum(getattr(self, stage) for stage in STAGES)

    def fractions(self) -> "dict[str, float]":
        """Stage proportions of total lifecycle time (Figure 10a)."""
        total = self.total
        return {
            stage: getattr(self, stage) / total if total else 0.0
            for stage in STAGES
        }


def latency_breakdown(paths: "list[RequestCriticalPath]") -> LatencyBreakdown:
    """Sum each stage's time over ``paths`` (the Figure 10a statistic).

    §6.3: "The total time consumed by all requests in each stage is then
    summed up to determine their respective proportions in the system's
    total execution time." ``math.fsum`` makes the sums independent of
    the order of ``paths``.
    """
    return LatencyBreakdown(
        prefill_queue=math.fsum(
            value for p in paths for value in (p.dispatch, p.prefill_queue)
        ),
        prefill_exec=math.fsum(p.prefill_exec for p in paths),
        transfer=math.fsum(
            value for p in paths for value in (p.kv_wait, p.kv_transmit)
        ),
        decode_queue=math.fsum(p.decode_queue for p in paths),
        decode_exec=math.fsum(p.decode_exec for p in paths),
    )


# ----------------------------------------------------------------------
# Interval arithmetic (for utilization unions and interference overlap).
# ----------------------------------------------------------------------
def _merge(intervals: "list[tuple[float, float]]") -> "list[tuple[float, float]]":
    """Merge possibly-overlapping intervals into a disjoint sorted union.

    The interval being grown stays in ``lo, hi`` until a gap closes it;
    a decode instance's consecutive steps touch end to start, so most
    intervals only extend it. Kept intervals are never empty, so
    ``hi > lo`` means one is open.
    """
    merged: "list[tuple[float, float]]" = []
    lo = hi = -math.inf
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if start > hi:
            if hi > lo:
                merged.append((lo, hi))
            lo, hi = start, end
        elif end > hi:
            hi = end
    if hi > lo:
        merged.append((lo, hi))
    return merged


def _measure(merged: "list[tuple[float, float]]") -> float:
    return math.fsum(end - start for start, end in merged)


def _overlap(
    a: "list[tuple[float, float]]", b: "list[tuple[float, float]]"
) -> float:
    """Total overlap between two disjoint sorted interval unions."""
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total


def _pct(sorted_values: "list[float]", q: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return sorted_values[int(pos)]
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def _dist(values: "list[float]") -> "dict[str, float]":
    ordered = sorted(values)
    n = len(ordered)
    return {
        "mean": math.fsum(ordered) / n if n else 0.0,
        "p50": _pct(ordered, 0.50),
        "p99": _pct(ordered, 0.99),
        "max": ordered[-1] if n else 0.0,
    }


def _utilization(
    profiler: Profiler, sim_time: float
) -> "dict[str, dict[str, Any]]":
    """Per-instance busy/idle/blocked fractions and occupancy histograms.

    One pass groups the exec events by instance; each instance's phase
    seconds and batch occupancy then accumulate in event order, the
    occupancy under int batch sizes until it is rendered.
    """
    exec_by_inst: "dict[str, list[tuple[str, str, float, float, int, int]]]" = {}
    for event in profiler.exec_events:
        exec_by_inst.setdefault(event[0], []).append(event)
    pending_by_inst: "dict[str, list[tuple[float, float]]]" = {}
    for instance, start, end in profiler.pending_events:
        pending_by_inst.setdefault(instance, []).append((start, end))

    out: "dict[str, dict[str, Any]]" = {}
    for instance in sorted(exec_by_inst.keys() | pending_by_inst.keys()):
        intervals: "list[tuple[float, float]]" = []
        phase_seconds: "dict[str, float]" = {}
        occupancy: "dict[int, float]" = {}
        tokens = 0
        for _inst, phase, start, end, batch_size, ntokens in exec_by_inst.get(
            instance, []
        ):
            intervals.append((start, end))
            phase_seconds[phase] = phase_seconds.get(phase, 0.0) + (end - start)
            occupancy[batch_size] = occupancy.get(batch_size, 0.0) + (end - start)
            tokens += ntokens
        busy_union = _merge(intervals)
        busy = _measure(busy_union)
        pending_union = _merge(pending_by_inst.get(instance, []))
        # Blocked-on-transfer counts only where the instance was not
        # also executing: overlap with busy time is attributed to busy.
        blocked = _measure(pending_union) - _overlap(pending_union, busy_union)
        denom = sim_time if sim_time > 0 else 1.0
        busy_frac = min(1.0, busy / denom)
        blocked_frac = max(0.0, min(1.0 - busy_frac, blocked / denom))
        phases = sorted(phase_seconds.items())
        out[instance] = {
            "busy_frac": busy_frac,
            "blocked_on_transfer_frac": blocked_frac,
            "idle_frac": max(0.0, 1.0 - busy_frac - blocked_frac),
            "exec_seconds": math.fsum(seconds for _phase, seconds in phases),
            "phase_seconds": dict(phases),
            "batch_occupancy": {
                str(size): seconds for size, seconds in sorted(occupancy.items())
            },
            "tokens": tokens,
        }
    return out


def _interference(spans: "list[Span]", sim_time: float) -> "dict[str, dict[str, float]]":
    """Prefill-vs-decode contention per instance (colocated mode).

    An instance's *decode-active* union covers, per request it decoded,
    the window from the start of its first ``decode`` span there (its
    first admission, or token 0 at a colocated prefill's end) to its
    last token; its contended seconds are the prefill-execution
    intervals falling inside that union — iterations that made
    mid-generation requests wait for their next token (§3.1).
    Disaggregated instances score zero by construction (no instance both
    prefills and decodes).
    """
    prefill_by_inst: "dict[str, list[tuple[float, float]]]" = {}
    decode_window: "dict[str, dict[int, tuple[float, float]]]" = {}
    for request_id, kind, start, end, instance, _batch, _token in spans:
        if instance is None:
            continue
        if kind == SpanKind.PREFILL_EXEC:
            prefill_by_inst.setdefault(instance, []).append((start, end))
        elif kind == SpanKind.DECODE:
            windows = decode_window.setdefault(instance, {})
            known = windows.get(request_id)
            if known is None:
                windows[request_id] = (start, end)
            else:
                windows[request_id] = (min(known[0], start), max(known[1], end))
    out: "dict[str, dict[str, float]]" = {}
    for instance in sorted(set(prefill_by_inst) | set(decode_window)):
        prefill_union = _merge(prefill_by_inst.get(instance, []))
        active_union = _merge(
            [window for _rid, window in sorted(decode_window.get(instance, {}).items())]
        )
        prefill_seconds = _measure(prefill_union)
        contended = _overlap(prefill_union, active_union)
        out[instance] = {
            "prefill_exec_seconds": prefill_seconds,
            "decode_active_seconds": _measure(active_union),
            "contended_seconds": contended,
            "contended_frac": contended / prefill_seconds if prefill_seconds > 0 else 0.0,
        }
    return out


def build_profile(
    spans: "list[Span]",
    profiler: "Profiler | None" = None,
    sim_time: "float | None" = None,
    slo: "tuple[float, float] | None" = None,
    meta: "dict[str, Any] | None" = None,
    num_gpus: int = 0,
) -> "dict[str, Any]":
    """Build the full deterministic profile report.

    Args:
        spans: Tracer span stream of the run.
        profiler: Profiler attached to the run (enables the KV wait/
            transmit split, utilization timelines, and occupancy
            histograms; the span-only sections degrade gracefully).
        sim_time: Virtual duration of the run (defaults to the latest
            span end).
        slo: Optional ``(ttft_slo, tpot_slo)`` pair; adds attainment and
            goodput accounting.
        meta: Caller-provided run description embedded verbatim (mode,
            seed, rate, ...) — the diff comparator displays it.
        num_gpus: Provisioned GPUs, for per-GPU goodput.
    """
    if sim_time is None:
        sim_time = max((span.end for span in spans), default=0.0)
    paths = critical_paths(
        spans, transfer_events=profiler.transfer_events if profiler else None
    )

    phase_totals = {name: 0.0 for name in PHASES}
    per_request: "list[dict[str, Any]]" = []
    ttfts: "list[float]" = []
    tpots: "list[float]" = []
    e2es: "list[float]" = []
    ttft_bd_totals = [0.0, 0.0, 0.0, 0.0]
    for path in paths:
        values = path.phase_values()
        for name, value in zip(PHASES, values):
            phase_totals[name] += value
        for i, value in enumerate(path.ttft_breakdown):
            ttft_bd_totals[i] += value
        ttft, tpot, e2e = path.ttft, path.tpot, path.end_to_end_latency
        ttfts.append(ttft)
        tpots.append(tpot)
        e2es.append(e2e)
        per_request.append(
            {
                "id": path.request_id,
                "arrival": path.arrival_time,
                "first_token": path.first_token_time,
                "completion": path.completion_time,
                "e2e": e2e,
                "ttft": ttft,
                "tpot": tpot,
                "tokens": path.num_tokens,
                "phases": dict(zip(PHASES, values)),
                "ttft_breakdown": dict(zip(TTFT_PHASES, path.ttft_breakdown)),
            }
        )

    n = len(paths)
    grand_total = math.fsum(phase_totals.values())
    phases_report = {}
    for name in PHASES:
        total = phase_totals[name]
        phases_report[name] = {
            "total": total,
            "mean": total / n if n else 0.0,
            "fraction": total / grand_total if grand_total > 0 else 0.0,
        }

    slo_report: "dict[str, Any] | None" = None
    if slo is not None:
        ttft_slo, tpot_slo = slo
        ok_ttft = ok_tpot = ok_both = 0
        for path in paths:
            hit_ttft = path.ttft <= ttft_slo
            hit_tpot = path.tpot <= tpot_slo
            ok_ttft += hit_ttft
            ok_tpot += hit_tpot
            ok_both += hit_ttft and hit_tpot
        goodput = ok_both / sim_time if sim_time > 0 else 0.0
        slo_report = {
            "ttft_slo": ttft_slo,
            "tpot_slo": tpot_slo,
            "attainment": ok_both / n if n else 0.0,
            "attainment_ttft": ok_ttft / n if n else 0.0,
            "attainment_tpot": ok_tpot / n if n else 0.0,
            "goodput_rps": goodput,
            "goodput_per_gpu": goodput / num_gpus if num_gpus > 0 else 0.0,
        }

    return {
        "schema": PROFILE_SCHEMA,
        "meta": dict(meta or {}),
        "summary": {
            "completed": n,
            "sim_time": sim_time,
            "num_gpus": num_gpus,
            "spans": len(spans),
            "exec_events": len(profiler.exec_events) if profiler else 0,
            "transfer_events": len(profiler.transfer_events) if profiler else 0,
        },
        "phases": phases_report,
        "ttft": {
            **_dist(ttfts),
            "breakdown_mean": {
                name: total / n if n else 0.0
                for name, total in zip(TTFT_PHASES, ttft_bd_totals)
            },
        },
        "tpot": _dist(tpots),
        "e2e": _dist(e2es),
        "slo": slo_report,
        "utilization": _utilization(profiler, sim_time) if profiler else {},
        "interference": _interference(spans, sim_time),
        "per_request": per_request,
    }


# ----------------------------------------------------------------------
# Differential comparison.
# ----------------------------------------------------------------------
def diff_profiles(a: "dict[str, Any]", b: "dict[str, Any]") -> "dict[str, Any]":
    """Attribute the latency/goodput delta between two runs to phases.

    Requests are aligned by id (same-seed runs share a workload, so the
    alignment is total); per-phase mean deltas over the matched set sum
    — via the residual phases — to the measured TTFT and e2e deltas,
    which is what makes the attribution exhaustive.

    Raises:
        ValueError: when either report is not a profile object.
    """
    for report in (a, b):
        if not isinstance(report, dict):
            raise ValueError(
                f"expected a {PROFILE_SCHEMA} object, got {type(report).__name__}"
            )
        if report.get("schema") != PROFILE_SCHEMA:
            raise ValueError(
                f"expected {PROFILE_SCHEMA} reports, got {report.get('schema')!r}"
            )
    a_by_id = {req["id"]: req for req in a["per_request"]}
    b_by_id = {req["id"]: req for req in b["per_request"]}
    matched_ids = sorted(set(a_by_id) & set(b_by_id))
    n = len(matched_ids)

    phase_delta = {name: 0.0 for name in PHASES}
    ttft_delta_by_phase = {name: 0.0 for name in TTFT_PHASES}
    ttft_deltas: "list[float]" = []
    tpot_deltas: "list[float]" = []
    e2e_deltas: "list[float]" = []
    for request_id in matched_ids:
        req_a = a_by_id[request_id]
        req_b = b_by_id[request_id]
        for name in PHASES:
            phase_delta[name] += req_b["phases"][name] - req_a["phases"][name]
        for name in TTFT_PHASES:
            ttft_delta_by_phase[name] += (
                req_b["ttft_breakdown"][name] - req_a["ttft_breakdown"][name]
            )
        ttft_deltas.append(req_b["ttft"] - req_a["ttft"])
        tpot_deltas.append(req_b["tpot"] - req_a["tpot"])
        e2e_deltas.append(req_b["e2e"] - req_a["e2e"])

    def _attribution(
        measured_total: float, by_phase: "dict[str, float]"
    ) -> "dict[str, Any]":
        attributed_total = math.fsum(by_phase.values())
        mean = measured_total / n if n else 0.0
        return {
            "measured_delta_mean": mean,
            "attributed": {
                name: delta / n if n else 0.0
                for name, delta in by_phase.items()
            },
            "attributed_fraction": (
                attributed_total / measured_total if measured_total != 0 else 1.0
            ),
        }

    slo_a, slo_b = a.get("slo"), b.get("slo")
    goodput_report = None
    if slo_a and slo_b:
        goodput_report = {
            "a_goodput_rps": slo_a["goodput_rps"],
            "b_goodput_rps": slo_b["goodput_rps"],
            "delta": slo_b["goodput_rps"] - slo_a["goodput_rps"],
            "a_attainment": slo_a["attainment"],
            "b_attainment": slo_b["attainment"],
            "attainment_delta": slo_b["attainment"] - slo_a["attainment"],
        }

    return {
        "schema": PROFILE_DIFF_SCHEMA,
        "a_meta": dict(a["meta"]),
        "b_meta": dict(b["meta"]),
        "matched": n,
        "only_a": len(a_by_id) - n,
        "only_b": len(b_by_id) - n,
        "ttft": {
            "a_mean": a["ttft"]["mean"],
            "b_mean": b["ttft"]["mean"],
            "delta_mean": b["ttft"]["mean"] - a["ttft"]["mean"],
            **_attribution(math.fsum(ttft_deltas), ttft_delta_by_phase),
        },
        "tpot": {
            "a_mean": a["tpot"]["mean"],
            "b_mean": b["tpot"]["mean"],
            "delta_mean": b["tpot"]["mean"] - a["tpot"]["mean"],
            "matched_delta_mean": math.fsum(tpot_deltas) / n if n else 0.0,
        },
        "e2e": {
            "a_mean": a["e2e"]["mean"],
            "b_mean": b["e2e"]["mean"],
            "delta_mean": b["e2e"]["mean"] - a["e2e"]["mean"],
            **_attribution(math.fsum(e2e_deltas), phase_delta),
        },
        "goodput": goodput_report,
        "phases": {
            name: {
                "a_mean": a["phases"][name]["mean"],
                "b_mean": b["phases"][name]["mean"],
                "delta_mean": b["phases"][name]["mean"] - a["phases"][name]["mean"],
            }
            for name in PHASES
        },
    }


# ----------------------------------------------------------------------
# Renderers: JSON (canonical bytes), human text, self-contained HTML.
# ----------------------------------------------------------------------
def profile_to_json(report: "dict[str, Any]") -> str:
    """Canonical JSON rendering — byte-identical for identical runs."""
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def format_profile(report: "dict[str, Any]") -> str:
    """Human-readable profile summary."""
    lines: "list[str]" = []
    meta = report["meta"]
    summary = report["summary"]
    header = " ".join(f"{key}={meta[key]}" for key in sorted(meta))
    lines.append(f"profile: {header}" if header else "profile")
    lines.append(
        f"  completed={summary['completed']} sim_time={_fmt(summary['sim_time'])}s"
        f" spans={summary['spans']} exec_events={summary['exec_events']}"
    )
    lines.append("critical path (mean seconds per request, fraction of total):")
    for name in PHASES:
        entry = report["phases"][name]
        bar = "#" * int(round(entry["fraction"] * 40))
        lines.append(
            f"  {name:<14} {_fmt(entry['mean'])}  {entry['fraction']:6.1%}  {bar}"
        )
    ttft = report["ttft"]
    lines.append(
        f"ttft: mean={_fmt(ttft['mean'])} p50={_fmt(ttft['p50'])}"
        f" p99={_fmt(ttft['p99'])} max={_fmt(ttft['max'])}"
    )
    for name in TTFT_PHASES:
        lines.append(f"  {name:<14} {_fmt(ttft['breakdown_mean'][name])}")
    tpot = report["tpot"]
    lines.append(
        f"tpot: mean={_fmt(tpot['mean'])} p50={_fmt(tpot['p50'])}"
        f" p99={_fmt(tpot['p99'])} max={_fmt(tpot['max'])}"
    )
    if report["slo"]:
        slo = report["slo"]
        lines.append(
            f"slo: attainment={slo['attainment']:.1%}"
            f" (ttft {slo['attainment_ttft']:.1%} / tpot {slo['attainment_tpot']:.1%})"
            f" goodput={_fmt(slo['goodput_rps'])} req/s"
        )
    if report["utilization"]:
        lines.append("utilization (busy / blocked-on-transfer / idle):")
        for instance in sorted(report["utilization"]):
            entry = report["utilization"][instance]
            occupancy = " ".join(
                f"{size}x{seconds:.3f}s"
                for size, seconds in entry["batch_occupancy"].items()
            )
            lines.append(
                f"  {instance:<14} {entry['busy_frac']:6.1%}"
                f" {entry['blocked_on_transfer_frac']:6.1%}"
                f" {entry['idle_frac']:6.1%}  occupancy: {occupancy}"
            )
    contended = {
        name: entry
        for name, entry in report["interference"].items()
        if entry["contended_seconds"] > 0
    }
    if contended:
        lines.append("interference (prefill exec while decodes mid-generation):")
        for instance in sorted(contended):
            entry = contended[instance]
            lines.append(
                f"  {instance:<14} {_fmt(entry['contended_seconds'])}s"
                f" of {_fmt(entry['prefill_exec_seconds'])}s prefill"
                f" ({entry['contended_frac']:.1%})"
            )
    return "\n".join(lines) + "\n"


def format_profile_diff(diff: "dict[str, Any]") -> str:
    """Human-readable differential report (run B relative to run A)."""
    lines: "list[str]" = []
    a_meta = " ".join(f"{k}={diff['a_meta'][k]}" for k in sorted(diff["a_meta"]))
    b_meta = " ".join(f"{k}={diff['b_meta'][k]}" for k in sorted(diff["b_meta"]))
    lines.append(f"profile diff: A[{a_meta}] -> B[{b_meta}]")
    lines.append(
        f"  matched={diff['matched']} only_a={diff['only_a']} only_b={diff['only_b']}"
    )
    ttft = diff["ttft"]
    lines.append(
        f"ttft: {_fmt(ttft['a_mean'])} -> {_fmt(ttft['b_mean'])}"
        f" (delta {ttft['delta_mean']:+.6f}s,"
        f" {ttft['attributed_fraction']:.1%} attributed)"
    )
    for name in TTFT_PHASES:
        lines.append(f"  {name:<14} {ttft['attributed'][name]:+.6f}")
    tpot = diff["tpot"]
    lines.append(
        f"tpot: {_fmt(tpot['a_mean'])} -> {_fmt(tpot['b_mean'])}"
        f" (delta {tpot['delta_mean']:+.6f}s)"
    )
    e2e = diff["e2e"]
    lines.append(
        f"e2e: {_fmt(e2e['a_mean'])} -> {_fmt(e2e['b_mean'])}"
        f" (delta {e2e['delta_mean']:+.6f}s,"
        f" {e2e['attributed_fraction']:.1%} attributed)"
    )
    for name in PHASES:
        lines.append(f"  {name:<14} {e2e['attributed'][name]:+.6f}")
    if diff["goodput"]:
        goodput = diff["goodput"]
        lines.append(
            f"goodput: {_fmt(goodput['a_goodput_rps'])} ->"
            f" {_fmt(goodput['b_goodput_rps'])} req/s"
            f" (attainment {goodput['a_attainment']:.1%} ->"
            f" {goodput['b_attainment']:.1%})"
        )
    return "\n".join(lines) + "\n"


_HTML_STYLE = """
body{font-family:system-ui,sans-serif;margin:2em;color:#1a1a2e}
h1,h2{color:#16213e}table{border-collapse:collapse;margin:1em 0}
td,th{border:1px solid #cbd5e1;padding:4px 10px;text-align:right;font-variant-numeric:tabular-nums}
th{background:#e2e8f0}td.name,th.name{text-align:left}
.bar{background:#3b82f6;height:12px;display:inline-block;vertical-align:middle}
.delta-pos{color:#b91c1c}.delta-neg{color:#15803d}
.meta{color:#475569;font-size:0.9em}
""".strip()


def _html_page(title: str, body: "list[str]") -> str:
    return (
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\">"
        f"<title>{escape(title)}</title><style>{_HTML_STYLE}</style></head>"
        "<body>" + "".join(body) + "</body></html>\n"
    )


def _html_meta(meta: "dict[str, Any]") -> str:
    text = " ".join(f"{key}={meta[key]}" for key in sorted(meta))
    return f"<p class=\"meta\">{escape(text)}</p>" if text else ""


def profile_to_html(report: "dict[str, Any]") -> str:
    """Self-contained single-file HTML rendering (no external assets).

    Accepts both a profile report and a diff report (dispatching on the
    embedded schema tag).
    """
    if report.get("schema") == PROFILE_DIFF_SCHEMA:
        return _diff_to_html(report)
    body: "list[str]" = ["<h1>Critical-path profile</h1>", _html_meta(report["meta"])]
    summary = report["summary"]
    body.append(
        f"<p>{summary['completed']} requests over {summary['sim_time']:.3f}s"
        f" virtual time · {summary['spans']} spans ·"
        f" {summary['exec_events']} exec events</p>"
    )
    body.append("<h2>Phases</h2><table><tr><th class=\"name\">phase</th>"
                "<th>mean (s)</th><th>total (s)</th><th>share</th><th></th></tr>")
    for name in PHASES:
        entry = report["phases"][name]
        width = int(round(entry["fraction"] * 300))
        body.append(
            f"<tr><td class=\"name\">{escape(name)}</td>"
            f"<td>{entry['mean']:.6f}</td><td>{entry['total']:.6f}</td>"
            f"<td>{entry['fraction']:.1%}</td>"
            f"<td><span class=\"bar\" style=\"width:{width}px\"></span></td></tr>"
        )
    body.append("</table>")
    body.append("<h2>Latency</h2><table><tr><th class=\"name\">metric</th>"
                "<th>mean</th><th>p50</th><th>p99</th><th>max</th></tr>")
    for label, key in (("TTFT", "ttft"), ("TPOT", "tpot"), ("E2E", "e2e")):
        entry = report[key]
        body.append(
            f"<tr><td class=\"name\">{label}</td><td>{entry['mean']:.6f}</td>"
            f"<td>{entry['p50']:.6f}</td><td>{entry['p99']:.6f}</td>"
            f"<td>{entry['max']:.6f}</td></tr>"
        )
    body.append("</table>")
    if report["slo"]:
        slo = report["slo"]
        body.append(
            f"<p>SLO attainment {slo['attainment']:.1%}"
            f" (TTFT {slo['attainment_ttft']:.1%}, TPOT {slo['attainment_tpot']:.1%})"
            f" · goodput {slo['goodput_rps']:.4f} req/s</p>"
        )
    if report["utilization"]:
        body.append("<h2>Utilization</h2><table><tr><th class=\"name\">instance</th>"
                    "<th>busy</th><th>blocked</th><th>idle</th><th>tokens</th>"
                    "<th class=\"name\">batch occupancy (size×s)</th></tr>")
        for instance in sorted(report["utilization"]):
            entry = report["utilization"][instance]
            occupancy = " ".join(
                f"{size}×{seconds:.3f}"
                for size, seconds in entry["batch_occupancy"].items()
            )
            body.append(
                f"<tr><td class=\"name\">{escape(instance)}</td>"
                f"<td>{entry['busy_frac']:.1%}</td>"
                f"<td>{entry['blocked_on_transfer_frac']:.1%}</td>"
                f"<td>{entry['idle_frac']:.1%}</td><td>{entry['tokens']}</td>"
                f"<td class=\"name\">{escape(occupancy)}</td></tr>"
            )
        body.append("</table>")
    contended = {
        name: entry
        for name, entry in report["interference"].items()
        if entry["decode_active_seconds"] > 0 and entry["prefill_exec_seconds"] > 0
    }
    if contended:
        body.append("<h2>Interference</h2><table><tr><th class=\"name\">instance</th>"
                    "<th>prefill exec (s)</th><th>contended (s)</th><th>share</th></tr>")
        for instance in sorted(contended):
            entry = contended[instance]
            body.append(
                f"<tr><td class=\"name\">{escape(instance)}</td>"
                f"<td>{entry['prefill_exec_seconds']:.4f}</td>"
                f"<td>{entry['contended_seconds']:.4f}</td>"
                f"<td>{entry['contended_frac']:.1%}</td></tr>"
            )
        body.append("</table>")
    return _html_page("Critical-path profile", body)


def _delta_cell(value: float) -> str:
    css = "delta-pos" if value > 0 else "delta-neg"
    return f"<td class=\"{css}\">{value:+.6f}</td>"


def _diff_to_html(diff: "dict[str, Any]") -> str:
    body: "list[str]" = ["<h1>Profile diff</h1>"]
    body.append("<p class=\"meta\">A: " + escape(
        " ".join(f"{k}={diff['a_meta'][k]}" for k in sorted(diff["a_meta"]))
    ) + "<br>B: " + escape(
        " ".join(f"{k}={diff['b_meta'][k]}" for k in sorted(diff["b_meta"]))
    ) + "</p>")
    body.append(
        f"<p>{diff['matched']} matched requests"
        f" (A-only {diff['only_a']}, B-only {diff['only_b']})</p>"
    )
    ttft = diff["ttft"]
    body.append(
        f"<h2>TTFT</h2><p>{ttft['a_mean']:.6f} → {ttft['b_mean']:.6f}"
        f" ({ttft['delta_mean']:+.6f}s,"
        f" {ttft['attributed_fraction']:.1%} attributed)</p>"
    )
    body.append("<table><tr><th class=\"name\">phase</th><th>Δ mean (s)</th></tr>")
    for name in TTFT_PHASES:
        body.append(
            f"<tr><td class=\"name\">{escape(name)}</td>"
            + _delta_cell(ttft["attributed"][name]) + "</tr>"
        )
    body.append("</table>")
    e2e = diff["e2e"]
    body.append(
        f"<h2>End-to-end</h2><p>{e2e['a_mean']:.6f} → {e2e['b_mean']:.6f}"
        f" ({e2e['delta_mean']:+.6f}s,"
        f" {e2e['attributed_fraction']:.1%} attributed)</p>"
    )
    body.append("<table><tr><th class=\"name\">phase</th><th>A mean</th>"
                "<th>B mean</th><th>Δ mean (s)</th></tr>")
    for name in PHASES:
        entry = diff["phases"][name]
        body.append(
            f"<tr><td class=\"name\">{escape(name)}</td>"
            f"<td>{entry['a_mean']:.6f}</td><td>{entry['b_mean']:.6f}</td>"
            + _delta_cell(entry["delta_mean"]) + "</tr>"
        )
    body.append("</table>")
    tpot = diff["tpot"]
    body.append(
        f"<h2>TPOT</h2><p>{tpot['a_mean']:.6f} → {tpot['b_mean']:.6f}"
        f" ({tpot['delta_mean']:+.6f}s)</p>"
    )
    if diff["goodput"]:
        goodput = diff["goodput"]
        body.append(
            f"<h2>Goodput</h2><p>{goodput['a_goodput_rps']:.4f} →"
            f" {goodput['b_goodput_rps']:.4f} req/s · attainment"
            f" {goodput['a_attainment']:.1%} → {goodput['b_attainment']:.1%}</p>"
        )
    return _html_page("Profile diff", body)
