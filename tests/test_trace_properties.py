"""Property-based tests for trace invariants across random workloads.

For arbitrary small workloads and either serving architecture, the span
timeline must be well-formed: spans non-negative and inside the request's
[arrival, completion] window, stage boundaries monotone, exactly one
prefill execution per completed request and ``decode`` spans whose token
indices rise strictly from 0 to ``output_len - 1``, TTFT derivable from
spans equal to what the percentile layer reports, each record a bitwise
projection of its critical path (also across a decode-instance
failover, and for the phase-only systems), and KV-transfer spans
appearing only under disaggregation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import critical_paths, ttft_percentile
from repro.models import ModelArchitecture
from repro.serving import (
    ColocatedSystem,
    DecodeOnlySystem,
    DisaggregatedSystem,
    PrefillOnlySystem,
    simulate_trace,
)
from repro.simulator import (
    InstanceSpec,
    Simulation,
    SpanKind,
    Tracer,
    spans_by_request,
)
from repro.workload import SHAREGPT, Request, Trace, generate_trace

MODEL = ModelArchitecture("prop-trace", 8, 1024, 8, 4096)

requests_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=3.0),   # arrival
        st.integers(min_value=1, max_value=512),   # input_len
        st.integers(min_value=1, max_value=24),    # output_len
    ),
    min_size=1,
    max_size=12,
)


def make_trace(raw):
    return Trace(
        requests=[
            Request(request_id=i, arrival_time=t, input_len=inp, output_len=out)
            for i, (t, inp, out) in enumerate(raw)
        ]
    )


def run_traced(system_kind, trace, **kwargs):
    sim = Simulation()
    tracer = Tracer()
    spec = InstanceSpec(model=MODEL)
    if system_kind == "disaggregated":
        system = DisaggregatedSystem(sim, spec, spec, tracer=tracer, **kwargs)
    else:
        system = ColocatedSystem(sim, spec, tracer=tracer, **kwargs)
    result = simulate_trace(system, trace, max_events=500_000)
    return result, tracer


def check_projection(records, paths):
    """Each record holds its critical path's values, bitwise."""
    assert [p.request_id for p in paths] == sorted(r.request_id for r in records)
    by_record = {r.request_id: r for r in records}
    for path in paths:
        record = by_record[path.request_id]
        assert record.arrival_time == path.arrival_time
        assert record.ttft == path.ttft
        assert record.tpot == path.tpot
        assert record.finish_time == path.completion_time
        assert record.output_len == path.num_tokens


def check_common_invariants(trace, result, tracer):
    """Invariants shared by every serving architecture."""
    assert result.unfinished == 0
    assert not tracer.open_spans()
    by_origin = {r.request_id: r for r in trace}
    grouped = spans_by_request(tracer.spans)
    assert sorted(grouped) == sorted(by_origin)
    check_projection(result.records, critical_paths(tracer.spans))
    for rid, spans in grouped.items():
        origin = by_origin[rid]
        kinds = [s.kind for s in spans]
        # Exactly one terminal pair, one prefill execution.
        assert kinds.count(SpanKind.ARRIVAL) == 1
        assert kinds.count(SpanKind.COMPLETION) == 1
        assert kinds.count(SpanKind.PREFILL_EXEC) == 1
        arrival = next(s for s in spans if s.kind == SpanKind.ARRIVAL).start
        completion = next(s for s in spans if s.kind == SpanKind.COMPLETION).end
        assert arrival == origin.arrival_time
        # Every span is non-negative and inside [arrival, completion].
        for span in spans:
            assert span.duration >= 0.0
            assert span.start >= arrival - 1e-12
            assert span.end <= completion + 1e-12
        # Token 0, then one decode span per stay in a running batch: the
        # indices rise strictly to the last token, and so do the ends.
        steps = [s for s in spans if s.kind == SpanKind.DECODE]
        indices = [s.token_index for s in steps]
        assert indices[0] == 0 and indices[-1] == origin.output_len - 1
        for prev, cur in zip(steps, steps[1:]):
            assert cur.token_index > prev.token_index
            assert cur.end >= prev.end
        # Spans are well-nested: stage boundaries never move backwards.
        boundaries = [
            s.end
            for s in spans
            if s.kind
            in (
                SpanKind.PREFILL_QUEUE,
                SpanKind.PREFILL_EXEC,
                SpanKind.KV_TRANSFER,
                SpanKind.DECODE_QUEUE,
            )
        ]
        assert boundaries == sorted(boundaries)


class TestTraceProperties:
    @given(
        raw=requests_strategy,
        n_p=st.integers(min_value=1, max_value=2),
        n_d=st.integers(min_value=1, max_value=2),
        mode=st.sampled_from(["pull", "push"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_disaggregated_invariants(self, raw, n_p, n_d, mode):
        trace = make_trace(raw)
        result, tracer = run_traced(
            "disaggregated", trace,
            num_prefill=n_p, num_decode=n_d, transfer_mode=mode,
        )
        check_common_invariants(trace, result, tracer)
        # kv_transfer exists exactly for multi-token requests, and every
        # multi-token request also queues for decode.
        by_id = {r.request_id: r for r in trace}
        for rid, spans in spans_by_request(tracer.spans).items():
            kinds = [s.kind for s in spans]
            expected = 1 if by_id[rid].output_len > 1 else 0
            assert kinds.count(SpanKind.KV_TRANSFER) == expected
            assert kinds.count(SpanKind.DECODE_QUEUE) == expected

    @given(
        raw=requests_strategy,
        policy=st.sampled_from(["prefill_priority", "combined", "chunked"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_colocated_invariants(self, raw, policy):
        trace = make_trace(raw)
        result, tracer = run_traced("colocated", trace, policy=policy)
        check_common_invariants(trace, result, tracer)
        # Colocation has no KV migration: transfer spans are exclusive
        # to disaggregated mode.
        assert all(s.kind != SpanKind.KV_TRANSFER for s in tracer.spans)

    @given(raw=requests_strategy)
    @settings(max_examples=25, deadline=None)
    def test_ttft_percentiles_match_span_derivation(self, raw):
        trace = make_trace(raw)
        result, tracer = run_traced("disaggregated", trace)
        grouped = spans_by_request(tracer.spans)
        span_ttfts = []
        for rid in sorted(grouped):
            spans = grouped[rid]
            arrival = next(s for s in spans if s.kind == SpanKind.ARRIVAL).start
            first = min(
                s.end for s in spans
                if s.kind == SpanKind.DECODE and s.token_index == 0
            )
            span_ttfts.append(first - arrival)
        records = sorted(result.records, key=lambda r: r.request_id)
        record_ttfts = [r.ttft for r in records]
        assert np.allclose(span_ttfts, record_ttfts, atol=1e-12, rtol=0.0)
        for q in (50.0, 90.0, 99.0):
            assert float(np.percentile(span_ttfts, q)) == ttft_percentile(
                result.records, q
            )

    @given(raw=requests_strategy)
    @settings(max_examples=25, deadline=None)
    def test_stage_sums_reconcile_with_e2e(self, raw):
        trace = make_trace(raw)
        result, tracer = run_traced("disaggregated", trace)
        by_id = {r.request_id: r.end_to_end_latency for r in result.records}
        for path in critical_paths(tracer.spans):
            assert abs(path.phase_sum - by_id[path.request_id]) < 1e-9

    @pytest.mark.parametrize("system_cls", [PrefillOnlySystem, DecodeOnlySystem])
    @given(raw=requests_strategy)
    @settings(max_examples=25, deadline=None)
    def test_phase_only_records_project_critical_paths(self, system_cls, raw):
        """The prefill-only system stamps tokens after the first for free,
        and the decode-only one skips prefill; both records still equal
        their critical paths, token count included."""
        tracer = Tracer()
        system = system_cls(Simulation(), InstanceSpec(model=MODEL), tracer=tracer)
        result = simulate_trace(system, make_trace(raw))
        assert result.unfinished == 0
        check_projection(result.records, critical_paths(tracer.spans))

    def test_failover_records_project_critical_paths(self):
        """Victims of a decode failure re-prefill and re-join decoding;
        their records still equal their critical paths bitwise."""
        trace = generate_trace(
            SHAREGPT, rate=8.0, num_requests=120, rng=np.random.default_rng(0)
        )
        sim = Simulation()
        tracer = Tracer()
        spec = InstanceSpec(model=MODEL)
        system = DisaggregatedSystem(
            sim, spec, spec, num_prefill=2, num_decode=2, tracer=tracer
        )
        victims = []
        sim.schedule(
            trace.duration / 2, lambda: victims.append(system.fail_decode("decode-0"))
        )
        result = simulate_trace(system, trace)
        assert victims[0] > 0
        assert result.completed == len(trace)
        check_projection(result.records, critical_paths(tracer.spans))
