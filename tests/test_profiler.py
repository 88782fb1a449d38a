"""Profiler hook tests: event collection, pending intervals, and purity.

The profiler must be a *pure observer*: wiring it into a serving system
may never change scheduling decisions, request records, or the span
timeline. These tests pin that property alongside the unit semantics of
the three event streams.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

import numpy as np
import pytest

from repro.serving import (
    ColocatedSystem,
    DisaggregatedSystem,
    simulate_trace,
)
from repro.simulator import (
    NULL_PROFILER,
    NullProfiler,
    Profiler,
    Simulation,
    Tracer,
    to_jsonl,
)
from repro.workload import generate_trace, get_dataset


def _run(system_cls, spec, profiler=None, tracer=None, **kwargs):
    sim = Simulation()
    if system_cls is DisaggregatedSystem:
        system = DisaggregatedSystem(
            sim, spec, spec, num_prefill=1, num_decode=1,
            tracer=tracer, profiler=profiler, **kwargs,
        )
    else:
        system = ColocatedSystem(
            sim, spec, num_replicas=1, tracer=tracer, profiler=profiler,
            **kwargs,
        )
    trace = generate_trace(
        get_dataset("humaneval"), rate=4.0, num_requests=10,
        rng=np.random.default_rng(7),
    )
    return simulate_trace(system, trace)


class TestProfilerUnit:
    def test_record_exec_appends_plain_tuples(self):
        prof = Profiler()
        prof.record_exec("prefill-0", "prefill", 1.0, 2.0, 3, 512)
        prof.record_exec("decode-0", "decode", 2.0, 2.5, 4, 4)
        assert prof.exec_events == [
            ("prefill-0", "prefill", 1.0, 2.0, 3, 512),
            ("decode-0", "decode", 2.0, 2.5, 4, 4),
        ]
        assert len(prof) == 2

    def test_record_transfer(self):
        prof = Profiler()
        prof.record_transfer(42, 1.0, 1.25, 1.5)
        assert prof.transfer_events == [(42, 1.0, 1.25, 1.5)]

    def test_pending_open_close(self):
        prof = Profiler()
        prof.begin_pending("decode-0", 1.0)
        prof.begin_pending("decode-0", 2.0)  # idempotent while open
        prof.end_pending("decode-0", 3.0)
        assert prof.pending_events == [("decode-0", 1.0, 3.0)]

    def test_pending_zero_length_dropped(self):
        prof = Profiler()
        prof.begin_pending("decode-0", 1.0)
        prof.end_pending("decode-0", 1.0)
        assert prof.pending_events == []

    def test_end_without_begin_is_noop(self):
        prof = Profiler()
        prof.end_pending("decode-0", 5.0)
        assert prof.pending_events == []

    def test_note_pending_reconciles(self):
        prof = Profiler()
        prof.note_pending("decode-0", True, 1.0)
        prof.note_pending("decode-0", True, 2.0)   # still blocked: no-op
        prof.note_pending("decode-0", False, 3.0)
        prof.note_pending("decode-0", False, 4.0)  # already closed: no-op
        assert prof.pending_events == [("decode-0", 1.0, 3.0)]

    def test_finish_closes_open_intervals_sorted(self):
        prof = Profiler()
        prof.begin_pending("decode-1", 2.0)
        prof.begin_pending("decode-0", 1.0)
        prof.finish(5.0)
        assert prof.pending_events == [
            ("decode-0", 1.0, 5.0),
            ("decode-1", 2.0, 5.0),
        ]
        # Idempotent: a second finish appends nothing.
        prof.finish(9.0)
        assert len(prof.pending_events) == 2

    def test_instances_sorted_union(self):
        prof = Profiler()
        prof.record_exec("b", "decode", 0.0, 1.0, 1, 1)
        prof.begin_pending("a", 0.0)
        prof.finish(1.0)
        assert prof.instances() == ["a", "b"]


def _worst_temporaries(calls, rounds=1000):
    """Per hook name, the most memory one call allocated and did not keep.

    ``calls`` are ``(name, call)`` pairs; each round calls every one with
    the round's time. A call's temporary memory is tracemalloc's peak
    during it less the larger of the traced memory before and after it.

    An active trace or profile function (coverage's tracer, a debugger)
    makes CPython 3.11+ build a frame object for every Python call, and
    a garbage collection that a hook's allocations set off runs other
    objects' finalizers inside the call, so tracing, profiling and the
    cyclic collector are all switched off for the measured loop."""
    worst = dict.fromkeys((name for name, _ in calls), 0)
    trace, profile = sys.gettrace(), sys.getprofile()
    collecting = gc.isenabled()
    sys.settrace(None)
    sys.setprofile(None)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        for i in range(rounds):
            t = float(i)
            for name, call in calls:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                call(t)
                current, peak = tracemalloc.get_traced_memory()
                worst[name] = max(worst[name], peak - max(before, current))
    finally:
        tracemalloc.stop()
        if collecting:
            gc.enable()
        sys.settrace(trace)
        sys.setprofile(profile)
    return worst


class TestHookAllocation:
    def test_hooks_allocate_nothing_temporary(self):
        """Each per-event hook keeps what it appends and allocates nothing
        else: tracemalloc's peak during a call never exceeds the traced
        memory before or after it. A list comprehension seeded into
        ``record_exec`` allocates a few hundred bytes a call; it cost
        perfbench's ``observed-disagg`` about 5% wall time, which the
        benchmark's 0.25 bound lets through."""
        prof = Profiler()
        calls = (
            ("record_exec", lambda t: prof.record_exec("d0", "decode", t, t + 0.5, 8, 512)),
            ("record_transfer", lambda t: prof.record_transfer(3, t, t + 0.25, t + 0.5)),
            ("begin_pending", lambda t: prof.begin_pending("d0", t)),
            ("begin_pending", lambda t: prof.begin_pending("d0", t + 0.25)),  # already open
            ("end_pending", lambda t: prof.end_pending("d0", t + 0.5)),
            ("note_pending", lambda t: prof.note_pending("d0", True, t)),
            ("note_pending", lambda t: prof.note_pending("d0", False, t + 0.5)),
        )
        worst = _worst_temporaries(calls)
        assert worst == dict.fromkeys(worst, 0)
        assert len(prof.exec_events) == len(prof.pending_events) / 2 == 1000

    @pytest.mark.parametrize("steps", [1, 64])
    def test_decode_steps_hook_appends_the_per_step_events(self, steps):
        """One ``record_decode_steps`` call holds exactly the events that
        one ``record_exec`` call per step appends, in step order."""
        ends = [0.125 * (i + 1) for i in range(steps)]
        bulk, per_step = Profiler(), Profiler()
        for prof in (bulk, per_step):
            prof.record_exec("p0", "prefill", 0.0, 0.5, 2, 300)
        bulk.record_decode_steps("d0", 0.0, ends, 8)
        start = 0.0
        for end in ends:
            per_step.record_exec("d0", "decode", start, end, 8, 8)
            start = end
        assert bulk.exec_events == per_step.exec_events
        assert len(bulk.exec_events) == steps + 1

    def test_decode_steps_hook_temporaries_do_not_grow_with_steps(self):
        """The bulk hook keeps its tuples and allocates only a constant
        amount beside them (its loop's iterator and bound ``append``):
        the same worst temporary at 1 step as at 64. A comprehension or a
        slice would grow with the run."""
        worst = {}
        for steps in (1, 64):
            prof = Profiler()
            ends = [0.125 * (i + 1) for i in range(steps)]
            worst[steps] = _worst_temporaries(
                (("steps", lambda t: prof.record_decode_steps("d0", t, ends, 8)),),
                rounds=200,
            )["steps"]
            assert len(prof.exec_events) == 200 * steps
        assert worst[1] == worst[64]


class TestNullProfiler:
    def test_disabled_and_inert(self):
        null = NullProfiler()
        assert null.enabled is False
        null.record_exec("x", "prefill", 0.0, 1.0, 1, 1)
        null.record_decode_steps("x", 0.0, [1.0, 2.0], 1)
        null.record_transfer(1, 0.0, 0.0, 1.0)
        null.begin_pending("x", 0.0)
        null.note_pending("x", True, 0.0)
        null.end_pending("x", 1.0)
        null.finish(2.0)
        assert null.exec_events == []
        assert null.transfer_events == []
        assert null.pending_events == []

    def test_shared_singleton(self):
        assert isinstance(NULL_PROFILER, NullProfiler)
        assert NULL_PROFILER.enabled is False


class TestProfilerWiring:
    def test_disaggregated_collects_all_streams(self, tiny_spec):
        prof = Profiler()
        result = _run(DisaggregatedSystem, tiny_spec, profiler=prof)
        assert result.unfinished == 0
        phases = {e[1] for e in prof.exec_events}
        assert phases == {"prefill", "decode"}
        assert len(prof.transfer_events) == len(result.records)
        for _, submitted, start, end in prof.transfer_events:
            assert submitted <= start <= end
        for _, _, start, end, batch, tokens in prof.exec_events:
            assert end >= start
            assert batch >= 1
            assert tokens >= 0

    def test_colocated_collects_exec_events(self, tiny_spec):
        prof = Profiler()
        result = _run(ColocatedSystem, tiny_spec, profiler=prof)
        assert result.unfinished == 0
        assert len(prof.exec_events) > 0
        assert {e[1] for e in prof.exec_events} <= {"prefill", "decode", "mixed"}
        # No transfer engine in colocated mode.
        assert prof.transfer_events == []

    def test_pending_intervals_bounded_by_sim_time(self, tiny_spec):
        prof = Profiler()
        result = _run(DisaggregatedSystem, tiny_spec, profiler=prof)
        for _, start, end in prof.pending_events:
            assert 0.0 <= start < end <= result.sim_time
        assert not prof._open_pending, "simulate_trace must finish() the profiler"

    @pytest.mark.parametrize("system_cls", [DisaggregatedSystem, ColocatedSystem])
    def test_profiler_is_a_pure_observer(self, tiny_spec, system_cls):
        """Same seed with and without a profiler → identical outcomes."""
        tracer_off, tracer_on = Tracer(), Tracer()
        bare = _run(system_cls, tiny_spec, profiler=None, tracer=tracer_off)
        profiled = _run(system_cls, tiny_spec, profiler=Profiler(), tracer=tracer_on)
        assert to_jsonl(tracer_off.spans) == to_jsonl(tracer_on.spans)
        assert [(r.request_id, r.arrival_time, r.finish_time)
                for r in bare.records] == \
               [(r.request_id, r.arrival_time, r.finish_time)
                for r in profiled.records]
        assert bare.sim_time == profiled.sim_time

    def test_deterministic_event_streams(self, tiny_spec):
        a, b = Profiler(), Profiler()
        _run(DisaggregatedSystem, tiny_spec, profiler=a)
        _run(DisaggregatedSystem, tiny_spec, profiler=b)
        assert a.exec_events == b.exec_events
        assert a.transfer_events == b.transfer_events
        assert a.pending_events == b.pending_events
