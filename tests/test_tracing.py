"""Unit tests for the lifecycle tracing layer and its exporters."""

import json
import math
import pickle

import pytest

from repro.analysis import critical_paths, latency_breakdown
from repro.models import ModelArchitecture
from repro.serving import (
    ColocatedSystem,
    DecodeOnlySystem,
    DisaggregatedSystem,
    PrefillOnlySystem,
    simulate_trace,
)
from repro.simulator import (
    NULL_TRACER,
    InstanceSpec,
    Simulation,
    Span,
    SpanKind,
    Tracer,
    chrome_trace_events,
    spans_by_request,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.workload import Request, Trace

MODEL = ModelArchitecture("trace-test", 8, 1024, 8, 4096)


def small_trace(n=5, output_len=4):
    return Trace(
        requests=[
            Request(request_id=i, arrival_time=0.25 * i, input_len=64 + i,
                    output_len=output_len)
            for i in range(n)
        ]
    )


def run_disaggregated(trace, tracer=None, **kwargs):
    sim = Simulation()
    spec = InstanceSpec(model=MODEL)
    system = DisaggregatedSystem(sim, spec, spec, tracer=tracer, **kwargs)
    return simulate_trace(system, trace)


class TestSpan:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown span kind"):
            Span(request_id=0, kind="nonsense", start=0.0, end=1.0)

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="ends"):
            Span(request_id=0, kind=SpanKind.PREFILL_EXEC, start=2.0, end=1.0)

    def test_duration_and_dict_roundtrip(self):
        span = Span(1, SpanKind.DECODE, 1.0, 1.5, "decode-0",
                    batch_size=3, token_index=2)
        assert span.duration == 0.5
        d = span.to_dict()
        assert d["kind"] == "decode"
        assert d["token_index"] == 2
        assert d["batch_size"] == 3

    @pytest.mark.parametrize(
        "build",
        [
            lambda kind, start, end: Span(4, kind, start, end),
            lambda kind, start, end: Span(request_id=4, kind=kind, start=start, end=end),
            lambda kind, start, end: Span._make((4, kind, start, end, "", 0, -1)),
            lambda kind, start, end: Span(
                4, SpanKind.PREFILL_EXEC, 0.0, 1.0
            )._replace(kind=kind, start=start, end=end),
        ],
        ids=["positional", "keyword", "make", "replace"],
    )
    def test_every_construction_validates(self, build):
        span = build(SpanKind.PREFILL_EXEC, 1.0, 2.0)
        assert span == Span(4, SpanKind.PREFILL_EXEC, 1.0, 2.0, "", 0, -1)
        assert type(span) is Span
        with pytest.raises(ValueError, match="unknown span kind"):
            build("nonsense", 1.0, 2.0)
        with pytest.raises(ValueError, match="ends"):
            build(SpanKind.PREFILL_EXEC, 2.0, 1.0)

    def test_immutable(self):
        span = Span(1, SpanKind.DECODE, 1.0, 1.5, "decode-0", token_index=2)
        with pytest.raises(AttributeError):
            span.end = 0.5
        with pytest.raises(AttributeError):
            span.note = "extra"
        assert span.end == 1.5

    def test_equal_spans_compare_and_hash_equal(self):
        a = Span(1, SpanKind.DECODE, 1.0, 1.5, "decode-0", 3, 2)
        b = Span(request_id=1, kind=SpanKind.DECODE, start=1.0, end=1.5,
                 instance="decode-0", batch_size=3, token_index=2)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != Span(1, SpanKind.DECODE, 1.0, 1.5, "decode-0", 3, 3)

    def test_pickle_round_trip(self):
        span = Span(7, SpanKind.KV_TRANSFER, 0.25, 0.75, "prefill-0->decode-1", 2)
        copy = pickle.loads(pickle.dumps(span))
        assert copy == span
        assert type(copy) is Span
        assert copy.to_dict() == span.to_dict()


class TestTracer:
    def test_begin_end_records_interval(self):
        tracer = Tracer()
        tracer.begin(7, SpanKind.PREFILL_QUEUE, 1.0, "prefill-0")
        tracer.end(7, SpanKind.PREFILL_QUEUE, 3.0)
        (span,) = tracer.spans
        assert (span.start, span.end, span.instance) == (1.0, 3.0, "prefill-0")

    def test_end_without_begin_raises(self):
        tracer = Tracer()
        with pytest.raises(KeyError):
            tracer.end(1, SpanKind.PREFILL_QUEUE, 1.0)

    def test_rebegin_closes_dangling_span(self):
        tracer = Tracer()
        tracer.begin(1, SpanKind.PREFILL_QUEUE, 1.0, "prefill-0")
        tracer.begin(1, SpanKind.PREFILL_QUEUE, 4.0, "prefill-1")
        tracer.end(1, SpanKind.PREFILL_QUEUE, 6.0)
        first, second = tracer.spans[0], tracer.spans[1]
        assert (first.start, first.end) == (1.0, 4.0)
        assert (second.start, second.end) == (4.0, 6.0)
        assert not tracer.open_spans()

    def test_open_spans_reports_in_flight(self):
        tracer = Tracer()
        tracer.begin(3, SpanKind.DECODE_QUEUE, 2.0, "decode-0")
        assert tracer.open_spans() == [(3, SpanKind.DECODE_QUEUE, 2.0)]

    def test_spans_for_filters_by_request(self):
        tracer = Tracer()
        tracer.instant(1, SpanKind.ARRIVAL, 0.0)
        tracer.instant(2, SpanKind.ARRIVAL, 0.5)
        tracer.instant(1, SpanKind.COMPLETION, 2.0)
        assert [s.kind for s in tracer.spans_for(1)] == [
            SpanKind.ARRIVAL, SpanKind.COMPLETION
        ]

    def test_null_tracer_is_inert(self):
        NULL_TRACER.begin(1, SpanKind.PREFILL_QUEUE, 0.0)
        NULL_TRACER.end(1, SpanKind.PREFILL_QUEUE, 1.0)
        NULL_TRACER.span(1, SpanKind.DECODE, 0.0, 1.0)
        NULL_TRACER.instant(1, SpanKind.ARRIVAL, 0.0)
        assert not NULL_TRACER.enabled
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.open_spans() == []


class TestExporters:
    def _spans(self):
        tracer = Tracer()
        tracer.instant(0, SpanKind.ARRIVAL, 0.0)
        tracer.span(0, SpanKind.PREFILL_EXEC, 0.0, 0.5, "prefill-0", batch_size=2)
        tracer.span(0, SpanKind.DECODE, 0.5, 0.5, "prefill-0", token_index=0)
        tracer.instant(0, SpanKind.COMPLETION, 0.5)
        return tracer.spans

    def test_jsonl_is_one_sorted_object_per_line(self):
        text = to_jsonl(self._spans())
        lines = text.strip().split("\n")
        assert len(lines) == 4
        for line in lines:
            obj = json.loads(line)
            assert list(obj) == sorted(obj)

    def test_jsonl_empty(self):
        assert to_jsonl([]) == ""

    def test_chrome_trace_structure(self):
        doc = to_chrome_trace(self._spans())
        events = doc["traceEvents"]
        phases = [e["ph"] for e in events]
        assert "M" in phases       # process/thread metadata
        assert "X" in phases       # the prefill_exec interval
        assert "i" in phases       # arrival/completion instants
        exec_event = next(e for e in events if e["name"] == "prefill_exec")
        assert exec_event["dur"] == pytest.approx(0.5e6)
        assert exec_event["args"]["batch_size"] == 2
        step = next(e for e in events if e["name"] == "decode")
        assert step["ph"] == "i"   # zero-width first token renders as instant
        assert step["args"]["token_index"] == 0

    def test_writers_produce_identical_bytes(self, tmp_path):
        spans = self._spans()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(str(a), spans)
        write_jsonl(str(b), spans)
        assert a.read_bytes() == b.read_bytes()
        ca, cb = tmp_path / "a.json", tmp_path / "b.json"
        write_chrome_trace(str(ca), spans)
        write_chrome_trace(str(cb), spans)
        assert ca.read_bytes() == cb.read_bytes()
        json.loads(ca.read_text())  # valid JSON document


class TestChromeExporterEdgeCases:
    """Satellite audit: zero-duration, out-of-order, and huge traces."""

    def test_zero_duration_interval_span_renders_as_instant(self):
        # A zero-width span of an *interval* kind (not just lifecycle
        # instants) must become a "i" event — Perfetto drops dur=0 "X"
        # events silently.
        span = Span(1, SpanKind.PREFILL_EXEC, 2.0, 2.0, instance="prefill-0")
        events = chrome_trace_events([span])
        rendered = next(e for e in events if e["name"] == "prefill_exec")
        assert rendered["ph"] == "i"
        assert rendered["s"] == "t"
        assert "dur" not in rendered

    def test_out_of_order_emission_preserved_and_complete(self):
        # The exporter must not assume spans arrive sorted by time or by
        # request id: late spans for early requests are the norm when
        # instances emit at completion time.
        spans = [
            Span(2, SpanKind.PREFILL_EXEC, 5.0, 6.0, instance="prefill-0"),
            Span(1, SpanKind.ARRIVAL, 0.0, 0.0),
            Span(2, SpanKind.ARRIVAL, 4.0, 4.0),
            Span(1, SpanKind.PREFILL_EXEC, 1.0, 2.0, instance="prefill-0"),
            Span(1, SpanKind.COMPLETION, 3.0, 3.0),
            Span(2, SpanKind.COMPLETION, 7.0, 7.0),
        ]
        events = chrome_trace_events(spans)
        data = [e for e in events if e["ph"] != "M"]
        # Emission order is preserved 1:1 (trace viewers sort by ts).
        assert [(e["tid"], e["name"]) for e in data] == [
            (span.request_id, span.kind) for span in spans
        ]
        # Exactly one thread_name metadata event per request, named at
        # first sighting even when request ids interleave.
        thread_meta = [e for e in events if e["name"] == "thread_name"]
        assert sorted(e["tid"] for e in thread_meta) == [1, 2]

    def test_timestamps_scale_to_microseconds(self):
        span = Span(1, SpanKind.DECODE_QUEUE, 1.5, 2.25, instance="decode-0")
        events = chrome_trace_events([span])
        rendered = next(e for e in events if e["name"] == "decode_queue")
        assert rendered["ts"] == pytest.approx(1.5e6)
        assert rendered["dur"] == pytest.approx(0.75e6)

    def test_over_64k_spans_roundtrip(self, tmp_path):
        # 64k is where naive uint16 track/id schemes overflow; the
        # exporter must stay linear and the document valid JSON.
        num_requests = 700
        spans_per_request = 96
        spans = []
        for rid in range(num_requests):
            base = rid * 0.001
            spans.append(Span(rid, SpanKind.ARRIVAL, base, base))
            for tok in range(spans_per_request - 2):
                t = base + 0.01 * (tok + 1)
                spans.append(
                    Span(rid, SpanKind.DECODE, t, t + 0.005,
                         instance="decode-0", token_index=tok)
                )
            end = base + 0.01 * spans_per_request
            spans.append(Span(rid, SpanKind.COMPLETION, end, end))
        assert len(spans) > 64 * 1024
        doc = to_chrome_trace(spans)
        # span events + process metadata + one thread metadata per request
        assert len(doc["traceEvents"]) == len(spans) + 1 + num_requests
        path = tmp_path / "big.json"
        write_chrome_trace(str(path), spans)
        parsed = json.loads(path.read_text())
        assert len(parsed["traceEvents"]) == len(doc["traceEvents"])
        tids = {e["tid"] for e in parsed["traceEvents"] if e["ph"] != "M"}
        assert tids == set(range(num_requests))


class TestSystemIntegration:
    def test_disaggregated_emits_full_lifecycle(self):
        tracer = Tracer()
        trace = small_trace()
        res = run_disaggregated(trace, tracer=tracer)
        assert res.completed == len(trace)
        assert res.spans == tracer.spans
        assert not tracer.open_spans()
        for rid, spans in spans_by_request(res.spans).items():
            kinds = [s.kind for s in spans]
            assert kinds.count(SpanKind.ARRIVAL) == 1
            assert kinds.count(SpanKind.COMPLETION) == 1
            assert kinds.count(SpanKind.PREFILL_EXEC) == 1
            assert kinds.count(SpanKind.KV_TRANSFER) == 1
            # Token 0 at prefill completion, then one stay in a decode
            # batch ending at the last token.
            decode = [s.token_index for s in spans if s.kind == SpanKind.DECODE]
            assert decode == [0, trace[rid].output_len - 1]

    def test_no_tracer_means_no_spans(self):
        res = run_disaggregated(small_trace())
        assert res.spans == []

    def test_colocated_has_no_transfer_spans(self):
        sim = Simulation()
        tracer = Tracer()
        system = ColocatedSystem(sim, InstanceSpec(model=MODEL), tracer=tracer)
        res = simulate_trace(system, small_trace())
        assert res.completed == 5
        assert all(s.kind != SpanKind.KV_TRANSFER for s in res.spans)
        assert all(s.kind != SpanKind.DECODE_QUEUE for s in res.spans)

    def test_phase_only_systems_trace(self):
        # The prefill-only system stamps tokens >= 1 for free under one
        # zero-width span; the decode-only one decodes them in one stay.
        for cls, indices in ((PrefillOnlySystem, [0, 3]), (DecodeOnlySystem, [0, 3])):
            sim = Simulation()
            tracer = Tracer()
            system = cls(sim, InstanceSpec(model=MODEL), tracer=tracer)
            res = simulate_trace(system, small_trace())
            assert res.completed == 5
            by_req = spans_by_request(res.spans)
            for rid, spans in by_req.items():
                kinds = [s.kind for s in spans]
                decode = [s.token_index for s in spans if s.kind == SpanKind.DECODE]
                assert decode == indices
                assert kinds.count(SpanKind.COMPLETION) == 1

    def test_single_token_request_skips_transfer_and_decode(self):
        tracer = Tracer()
        trace = Trace(requests=[Request(0, 0.0, 64, 1)])
        res = run_disaggregated(trace, tracer=tracer)
        assert res.completed == 1
        kinds = [s.kind for s in res.spans]
        assert SpanKind.KV_TRANSFER not in kinds
        assert SpanKind.DECODE_QUEUE not in kinds
        assert kinds.count(SpanKind.DECODE) == 1

    def test_spans_deterministic_across_runs(self):
        t1, t2 = Tracer(), Tracer()
        run_disaggregated(small_trace(), tracer=t1, num_prefill=2, num_decode=2)
        run_disaggregated(small_trace(), tracer=t2, num_prefill=2, num_decode=2)
        assert to_jsonl(t1.spans) == to_jsonl(t2.spans)


class TestSpanBreakdowns:
    """The span decomposition (critical paths) against the records."""

    def test_stage_sums_reconcile_with_records(self):
        tracer = Tracer()
        res = run_disaggregated(small_trace(8), tracer=tracer,
                                num_prefill=2, num_decode=2)
        by_id = {r.request_id: r for r in res.records}
        paths = critical_paths(res.spans)
        assert len(paths) == len(res.records)
        for path in paths:
            rec = by_id[path.request_id]
            assert path.phase_sum == pytest.approx(rec.end_to_end_latency, abs=1e-9)
            assert path.end_to_end_latency == pytest.approx(rec.end_to_end_latency)
            assert all(value >= 0.0 for value in path.phase_values())

    def test_aggregate_matches_record_breakdown_total(self):
        tracer = Tracer()
        res = run_disaggregated(small_trace(8), tracer=tracer)
        paths = critical_paths(res.spans)
        stages = latency_breakdown(paths)
        total = math.fsum(path.phase_sum for path in paths)
        assert total == pytest.approx(stages.total, rel=1e-9)
        assert stages.total == pytest.approx(
            math.fsum(r.end_to_end_latency for r in res.records), rel=1e-9
        )
        prefill_exec = math.fsum(path.prefill_exec for path in paths)
        assert prefill_exec == pytest.approx(stages.prefill_exec, rel=1e-9)
        # Prefill queueing starts at arrival: nothing is dispatch time.
        assert all(path.dispatch == 0.0 for path in paths)

    def test_unfinished_requests_are_excluded(self):
        tracer = Tracer()
        sim = Simulation()
        spec = InstanceSpec(model=MODEL)
        system = DisaggregatedSystem(sim, spec, spec, tracer=tracer)
        res = simulate_trace(system, small_trace(6, output_len=32),
                             max_sim_time=0.05)
        assert res.unfinished > 0
        assert len(critical_paths(res.spans)) == res.completed
