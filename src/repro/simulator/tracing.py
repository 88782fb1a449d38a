"""Per-request lifecycle tracing: typed spans over virtual time.

§3.1 and Figure 10 argue about *where time goes per request* — prefill
queueing, prefill execution, KV-cache transfer, decode queueing,
decoding. A :class:`~repro.simulator.request.RequestRecord` keeps only
a request's arrival, TTFT, TPOT and finish time; this module keeps the
full timeline. A :class:`Tracer` collects typed :class:`Span` objects
emitted by the instances and serving systems as the simulation runs,
yielding a deterministic, replayable artifact:

* **Golden traces** — a fixed-seed run serializes to byte-identical
  JSON-lines, so a checked-in fixture pins simulator behavior.
* **The one request decomposition** — :mod:`repro.analysis.critpath`
  splits each request's latency into phases from these spans, and
  Figure 10's stage proportions are a view of that split; a Figure 10
  number therefore needs a traced run.
* **Timeline visualisation** — the Chrome ``trace_event`` exporter
  produces files viewable in Perfetto / ``chrome://tracing``, one row
  per request.

Decoding is traced per stay, not per token: a request gets one
``decode`` span for each stay in a running batch, from its join to the
stay's last token (``token_index`` is that token's index), emitted by
the :class:`~repro.simulator.kernel.DecodeKernel` on the fast and the
per-step path alike. The prefill-produced token 0 is a zero-width
``decode`` span at prefill completion.

Tracing is opt-in and zero-cost when disabled: components hold the
shared :data:`NULL_TRACER` singleton (every method a no-op) unless an
enabled tracer is injected, and hot paths guard on ``tracer.enabled``.
Attaching one does not change which code runs. When enabled it stays
cheap per span: a :class:`Span` is an immutable tuple built
positionally, and the analysis layer unpacks spans rather than reading
their attributes.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Any, Iterable, NamedTuple

__all__ = [
    "Span",
    "SpanKind",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "spans_by_request",
    "to_jsonl",
    "write_jsonl",
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
]


class SpanKind:
    """Canonical span-kind names (plain strings, cheap to compare)."""

    ARRIVAL = "arrival"
    PREFILL_QUEUE = "prefill_queue"
    PREFILL_EXEC = "prefill_exec"
    KV_TRANSFER = "kv_transfer"
    DECODE_QUEUE = "decode_queue"
    DECODE = "decode"
    COMPLETION = "completion"
    PREEMPTED = "preempted"
    REJECTED = "rejected"

    ALL = frozenset(
        {
            ARRIVAL,
            PREFILL_QUEUE,
            PREFILL_EXEC,
            KV_TRANSFER,
            DECODE_QUEUE,
            DECODE,
            COMPLETION,
            PREEMPTED,
            REJECTED,
        }
    )

    #: Kinds that are instantaneous lifecycle events, not intervals.
    INSTANT = frozenset({ARRIVAL, COMPLETION, PREEMPTED, REJECTED})


class _SpanFields(NamedTuple):
    request_id: int
    kind: str
    start: float
    end: float
    instance: str = ""
    batch_size: int = 0
    token_index: int = -1

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> "dict[str, object]":
        return {
            "request_id": self.request_id,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "instance": self.instance,
            "batch_size": self.batch_size,
            "token_index": self.token_index,
        }


class Span(_SpanFields):
    """One typed interval (or instant) in a request's lifecycle.

    An immutable tuple of its seven fields, so building one costs a
    tuple allocation and the two checks below (a traced pass builds tens
    of thousands). Construction validates by position and by keyword
    alike; :meth:`_make` and ``_replace`` go through it too.

    Attributes:
        request_id: The request this span belongs to.
        kind: One of :class:`SpanKind`.
        start: Virtual-time start, seconds.
        end: Virtual-time end (== ``start`` for instants).
        instance: Name of the instance (or link endpoints) involved.
        batch_size: Size of the batch this work ran in (0 if N/A).
        token_index: For ``decode`` spans, the ordinal of the last output
            token the span covers (0 is the prefill-produced first
            token); -1 otherwise.
    """

    __slots__ = ()

    def __new__(
        cls,
        request_id: int,
        kind: str,
        start: float,
        end: float,
        instance: str = "",
        batch_size: int = 0,
        token_index: int = -1,
    ) -> "Span":
        if kind not in SpanKind.ALL:
            raise ValueError(f"unknown span kind {kind!r}")
        if end < start:
            raise ValueError(
                f"span {kind!r} of request {request_id} ends "
                f"({end}) before it starts ({start})"
            )
        return tuple.__new__(
            cls, (request_id, kind, start, end, instance, batch_size, token_index)
        )

    @classmethod
    def _make(cls, iterable: "Iterable[Any]") -> "Span":
        return cls(*iterable)


class Tracer:
    """Collects spans in emission order (deterministic under a fixed seed).

    Interval spans use :meth:`begin` / :meth:`end` keyed by
    ``(request_id, kind)``; a second :meth:`begin` on an open key closes
    the dangling span at the new start time (this is what keeps traces
    well-formed across failure re-routing, where a request re-enters a
    queue it never formally left). Fully-known intervals can be appended
    directly with :meth:`span`; lifecycle points with :meth:`instant`.
    Open intervals live in one map per kind, keyed by request id, so a
    call builds no key; every method builds its span positionally.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        #: kind -> request id -> (start, instance, batch size).
        self._open: "defaultdict[str, dict[int, tuple[float, str, int]]]" = (
            defaultdict(dict)
        )

    def __len__(self) -> int:
        return len(self.spans)

    # ------------------------------------------------------------------
    def begin(
        self,
        request_id: int,
        kind: str,
        time: float,
        instance: str = "",
        batch_size: int = 0,
    ) -> None:
        """Open an interval span; closes any dangling span of same key."""
        open_of_kind = self._open[kind]
        if request_id in open_of_kind:
            self.end(request_id, kind, time)
        open_of_kind[request_id] = (time, instance, batch_size)

    def end(self, request_id: int, kind: str, time: float) -> None:
        """Close an open interval span.

        Raises:
            KeyError: if no span of this (request, kind) is open.
        """
        start, instance, batch_size = self._open[kind].pop(request_id)
        self.spans.append(Span(request_id, kind, start, time, instance, batch_size))

    def span(
        self,
        request_id: int,
        kind: str,
        start: float,
        end: float,
        instance: str = "",
        batch_size: int = 0,
        token_index: int = -1,
    ) -> None:
        """Append a fully-known interval span."""
        self.spans.append(
            Span(request_id, kind, start, end, instance, batch_size, token_index)
        )

    def instant(
        self, request_id: int, kind: str, time: float, instance: str = ""
    ) -> None:
        """Append a zero-width lifecycle event."""
        self.spans.append(Span(request_id, kind, time, time, instance))

    # ------------------------------------------------------------------
    def open_spans(self) -> "list[tuple[int, str, float]]":
        """Still-open intervals as (request_id, kind, start) — requests
        in flight when the simulation stopped."""
        return sorted(
            (rid, kind, entry[0])
            for kind, open_of_kind in self._open.items()
            for rid, entry in open_of_kind.items()
        )

    def spans_for(self, request_id: int) -> "list[Span]":
        """All completed spans of one request, in emission order."""
        return [s for s in self.spans if s.request_id == request_id]


class NullTracer(Tracer):
    """The disabled tracer: every method is a no-op, every query empty.

    Components default to the shared :data:`NULL_TRACER` so span
    emission costs one attribute load and a no-op call — and the decode
    kernel skips even that by guarding on ``enabled``.
    """

    enabled = False

    def begin(self, *args: Any, **kwargs: Any) -> None:  # noqa: D102
        pass

    def end(self, *args: Any, **kwargs: Any) -> None:  # noqa: D102
        pass

    def span(self, *args: Any, **kwargs: Any) -> None:  # noqa: D102
        pass

    def instant(self, *args: Any, **kwargs: Any) -> None:  # noqa: D102
        pass


#: Shared no-op tracer used when tracing is disabled.
NULL_TRACER = NullTracer()


# ----------------------------------------------------------------------
# Accessors and exporters
# ----------------------------------------------------------------------
def spans_by_request(spans: "list[Span]") -> "dict[int, list[Span]]":
    """Group spans per request, preserving emission order."""
    grouped: "dict[int, list[Span]]" = {}
    for span in spans:
        grouped.setdefault(span.request_id, []).append(span)
    return grouped


def to_jsonl(spans: "list[Span]") -> str:
    """Serialize spans as JSON-lines, one span per line.

    Keys are sorted and floats use Python ``repr`` semantics, so two
    identical simulations produce byte-identical output — the property
    the golden-trace regression test pins.
    """
    lines = [
        json.dumps(span.to_dict(), sort_keys=True, separators=(",", ":"))
        for span in spans
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(path: str, spans: "list[Span]") -> None:
    """Write :func:`to_jsonl` output to ``path``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(to_jsonl(spans))


def chrome_trace_events(spans: "list[Span]") -> "list[dict]":
    """Spans as Chrome ``trace_event`` objects (one track per request).

    Interval spans become complete events (``ph: "X"``); lifecycle
    points become instant events (``ph: "i"``). Times are microseconds
    of virtual time; ``pid`` 1 is the synthetic "requests" process and
    ``tid`` is the request id, so Perfetto renders one lifecycle row per
    request.
    """
    events: "list[dict]" = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "requests"},
        }
    ]
    named: "set[int]" = set()
    for span in spans:
        if span.request_id not in named:
            named.add(span.request_id)
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": span.request_id,
                    "args": {"name": f"request {span.request_id}"},
                }
            )
        args: "dict[str, object]" = {"instance": span.instance}
        if span.batch_size:
            args["batch_size"] = span.batch_size
        if span.token_index >= 0:
            args["token_index"] = span.token_index
        event: "dict[str, object]" = {
            "name": span.kind,
            "pid": 1,
            "tid": span.request_id,
            "ts": span.start * 1e6,
            "args": args,
        }
        if span.kind in SpanKind.INSTANT or span.start == span.end:
            event["ph"] = "i"
            event["s"] = "t"
        else:
            event["ph"] = "X"
            event["dur"] = span.duration * 1e6
        events.append(event)
    return events


def to_chrome_trace(spans: "list[Span]") -> "dict[str, object]":
    """The full Chrome-trace JSON object (load in Perfetto as-is)."""
    return {"traceEvents": chrome_trace_events(spans), "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, spans: "list[Span]") -> None:
    """Write the Chrome-trace JSON to ``path`` (deterministic bytes)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(to_chrome_trace(spans), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
