"""Fast-forward kernel parity suite.

The kernel (macro-stepped decode runs + memoized batch latency, see
DESIGN.md §4h) promises *bitwise* equality with the per-step reference
path. Every test here runs the same workload twice — ``fast_kernel=True``
and ``fast_kernel=False`` — and asserts exact float equality on request
records, token timestamps, and instance counters. No tolerances.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.hardware import A100_80GB, ETHERNET_25G
from repro.latency import ParallelismConfig, coefficients_from_roofline
from repro.latency.memo import DecodeStepTimer, PrefillBatchTimer
from repro.latency.parallel import decode_times, prefill_times
from repro.models.memory import compute_memory_budget
from repro.serving import (
    ColocatedSystem,
    DecodeOnlySystem,
    DisaggregatedSystem,
    PrefillOnlySystem,
    simulate_trace,
)
from repro.simulator import InstanceSpec, SimSanitizer, Simulation
from repro.simulator.colocated_instance import POLICIES, ColocatedInstance
from repro.simulator.decode_instance import DecodeInstance
from repro.simulator.metrics import MetricsRegistry
from repro.simulator.profiler import Profiler
from repro.simulator.request import Request, RequestPhase, RequestState
from repro.simulator.tracing import Tracer
from repro.scheduling import SchedulingConfig
from repro.workload import fixed_length_dataset, generate_trace, get_dataset
from repro.workload.datasets import SyntheticDataset
from repro.workload.distributions import LognormalLength


# ----------------------------------------------------------------------
# Memoized timers mirror the reference latency model bitwise.
# ----------------------------------------------------------------------
class TestMemoTimers:
    @pytest.mark.parametrize("tp,pp", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_decode_timer_bitwise(self, tiny_model, tp, pp):
        coeffs = coefficients_from_roofline(A100_80GB)
        config = ParallelismConfig(tp, pp)
        timer = DecodeStepTimer(tiny_model, config, coeffs)
        rng = np.random.default_rng(0)
        for _ in range(50):
            lens = [int(x) for x in rng.integers(1, 2000, rng.integers(1, 64))]
            ref = decode_times(tiny_model, config, coeffs, lens).request_latency
            got = timer.request_latency(len(lens), sum(lens))
            assert got == ref  # bitwise, no tolerance

    def test_step_latency_fn_matches_request_latency(self, tiny_model):
        coeffs = coefficients_from_roofline(A100_80GB)
        timer = DecodeStepTimer(tiny_model, ParallelismConfig(2, 2), coeffs)
        for batch in (1, 3, 17):
            fn = timer.step_latency_fn(batch)
            for context in (batch, 100, 5000, 123456):
                assert fn(context) == timer.request_latency(batch, context)

    def test_decode_timer_empty_batch(self, tiny_model):
        coeffs = coefficients_from_roofline(A100_80GB)
        timer = DecodeStepTimer(tiny_model, ParallelismConfig(1, 1), coeffs)
        assert timer.request_latency(0, 0) == 0.0
        assert timer.step_latency_fn(0)(0) == 0.0

    @pytest.mark.parametrize("tp,pp", [(1, 1), (2, 2)])
    def test_prefill_timer_bitwise(self, tiny_model, tp, pp):
        coeffs = coefficients_from_roofline(A100_80GB)
        config = ParallelismConfig(tp, pp)
        timer = PrefillBatchTimer(tiny_model, config, coeffs)
        rng = np.random.default_rng(1)
        for _ in range(50):
            lens = [int(x) for x in rng.integers(1, 1024, rng.integers(1, 16))]
            ref = prefill_times(tiny_model, config, coeffs, lens)
            total = sum(lens)
            squared = 0.0
            for length in lens:
                squared += length * length
            got_request, got_stage = timer.times(total, squared)
            assert got_request == ref.request_latency
            assert got_stage == ref.stage_time

    def test_timer_validation_hoisted(self, tiny_model):
        coeffs = coefficients_from_roofline(A100_80GB)
        with pytest.raises(ValueError):
            DecodeStepTimer(tiny_model, ParallelismConfig(3, 1), coeffs)
        with pytest.raises(ValueError):
            PrefillBatchTimer(tiny_model, ParallelismConfig(3, 1), coeffs)


# ----------------------------------------------------------------------
# System-level parity: identical records fast vs. slow.
# ----------------------------------------------------------------------
def _records(result):
    return sorted(
        (r.request_id, r.ttft, r.tpot, r.finish_time) for r in result.records
    )


def _parity(make_system, trace):
    """Run ``trace`` fast and slow; assert bitwise-identical records."""
    results = {}
    for fast in (True, False):
        sim = Simulation()
        system = make_system(sim, fast)
        results[fast] = simulate_trace(system, trace)
    assert results[True].completed == results[False].completed
    assert results[True].unfinished == results[False].unfinished
    assert _records(results[True]) == _records(results[False])
    return results[True]


@pytest.fixture
def trace(rng):
    dataset = SyntheticDataset(
        name="mix",
        input_dist=LognormalLength(median=192.0, sigma=0.6, low=32, high=768),
        output_dist=LognormalLength(median=24.0, sigma=0.7, low=4, high=128),
    )
    return generate_trace(dataset, rate=12.0, num_requests=120, rng=rng)


class TestServingParity:
    def test_decode_only(self, tiny_spec, trace):
        res = _parity(
            lambda sim, fast: DecodeOnlySystem(sim, tiny_spec, fast_kernel=fast),
            trace,
        )
        assert res.completed == len(trace)

    def test_prefill_only(self, tiny_spec, trace):
        _parity(
            lambda sim, fast: PrefillOnlySystem(sim, tiny_spec, fast_kernel=fast),
            trace,
        )

    @pytest.mark.parametrize("mode", ["pull", "push"])
    def test_disaggregated(self, tiny_spec, trace, mode):
        res = _parity(
            lambda sim, fast: DisaggregatedSystem(
                sim, tiny_spec, tiny_spec, num_prefill=2, num_decode=2,
                transfer_link=ETHERNET_25G, transfer_mode=mode,
                fast_kernel=fast,
            ),
            trace,
        )
        assert res.completed == len(trace)

    def test_disaggregated_jitter_and_pp(self, tiny_model, trace):
        spec = InstanceSpec(
            model=tiny_model, config=ParallelismConfig(1, 2), jitter_sigma=0.1
        )
        _parity(
            lambda sim, fast: DisaggregatedSystem(
                sim, spec, spec, fast_kernel=fast
            ),
            trace,
        )

    @pytest.mark.parametrize("policy", POLICIES)
    def test_colocated_policies(self, tiny_spec, trace, policy):
        _parity(
            lambda sim, fast: ColocatedSystem(
                sim, tiny_spec, num_replicas=2, policy=policy, fast_kernel=fast
            ),
            trace,
        )

    def test_sanitizer_clean_fast_run(self, tiny_spec, trace):
        sanitizer = SimSanitizer(strict=True)
        sim = sanitizer.simulation()
        system = DisaggregatedSystem(sim, tiny_spec, tiny_spec, fast_kernel=True)
        sanitizer.watch_system(system)
        res = simulate_trace(system, trace)
        sanitizer.check_quiesce()
        assert res.completed == len(trace)
        assert sanitizer.violations == []


# ----------------------------------------------------------------------
# Decode-instance parity under preemption, jitter, and failures.
# ----------------------------------------------------------------------
def _small_gpu(model, target_tokens, pp=1):
    """A GPU sized so the decode KV pool holds ~``target_tokens``."""
    lo, hi = 1, A100_80GB.memory_bytes
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            cap = compute_memory_budget(model, mid, 1, pp).max_kv_tokens
        except ValueError:
            cap = -1
        if cap < target_tokens:
            lo = mid + 1
        else:
            hi = mid
    return dataclasses.replace(A100_80GB, memory_bytes=lo)


def _drive_decode(spec, fast, *, n=60, seed=7, reserve=True, fail_at=None):
    """Feed ``n`` decode requests; return (records, counters, done-count)."""
    rng = np.random.default_rng(seed)
    sim = Simulation()
    done = []
    inst = DecodeInstance(
        sim, spec, done.append, reserve_full_context=reserve, fast_kernel=fast
    )
    t = 0.0
    for i in range(n):
        t += float(rng.exponential(0.02))
        req = Request(
            request_id=i, arrival_time=t,
            input_len=int(rng.integers(50, 400)),
            output_len=int(rng.integers(20, 120)),
        )

        def submit(r=req):
            state = RequestState(
                request=r, phase=RequestPhase.WAITING_DECODE, generated=1
            )
            state.token_times.append(sim.now)
            inst.submit(state)

        sim.schedule_at(req.arrival_time, submit)
    if fail_at is not None:
        sim.schedule_at(fail_at, inst.fail)
    sim.run()
    records = sorted(
        (s.request_id, s.generated, tuple(s.token_times)) for s in done
    )
    counters = (
        inst.steps_executed,
        inst.preemptions,
        inst.tokens_generated,
        inst.busy_time,
    )
    return records, counters, len(done)


def _first_request_alone(spec):
    """A 50-token request arriving at 0 and its token times when alone."""
    first = Request(request_id=0, arrival_time=0.0,
                    input_len=100, output_len=50)
    sim = Simulation()
    state = RequestState(
        request=first, phase=RequestPhase.WAITING_DECODE, generated=1
    )
    state.token_times.append(0.0)
    DecodeInstance(sim, spec, lambda s: None, fast_kernel=False).submit(state)
    sim.run()
    return first, state.token_times


class TestDecodeInstanceParity:
    def test_optimistic_admission_preempts_identically(self, tiny_model):
        gpu = _small_gpu(tiny_model, 4000)
        spec = InstanceSpec(
            model=tiny_model, config=ParallelismConfig(1, 1), gpu=gpu
        )
        fast = _drive_decode(spec, True, reserve=False)
        slow = _drive_decode(spec, False, reserve=False)
        assert fast == slow
        assert fast[1][1] > 0  # the scenario really exercises preemption

    def test_reserved_admission_queues_identically(self, tiny_model):
        gpu = _small_gpu(tiny_model, 4000)
        spec = InstanceSpec(
            model=tiny_model, config=ParallelismConfig(1, 1), gpu=gpu
        )
        fast = _drive_decode(spec, True, reserve=True)
        slow = _drive_decode(spec, False, reserve=True)
        assert fast == slow

    def test_jitter_stream_identical(self, tiny_model):
        spec = InstanceSpec(
            model=tiny_model, config=ParallelismConfig(1, 1), jitter_sigma=0.08
        )
        assert _drive_decode(spec, True) == _drive_decode(spec, False)

    def test_jitter_with_preemption(self, tiny_model):
        gpu = _small_gpu(tiny_model, 4000)
        spec = InstanceSpec(
            model=tiny_model, config=ParallelismConfig(1, 1), gpu=gpu,
            jitter_sigma=0.05,
        )
        fast = _drive_decode(spec, True, reserve=False)
        slow = _drive_decode(spec, False, reserve=False)
        assert fast == slow

    def test_fail_mid_run_identical(self, tiny_spec):
        fast = _drive_decode(tiny_spec, True, fail_at=0.25)
        slow = _drive_decode(tiny_spec, False, fail_at=0.25)
        assert fast == slow

    def test_midstream_submit_truncates_run(self, tiny_spec):
        """The regression scenario: an event scheduled *after* a macro run

        was planned submits mid-run; the run must be truncated so the
        newcomer is admitted at the same boundary the per-step path
        would use.
        """
        results = {}
        for fast in (True, False):
            sim = Simulation()
            done = []
            inst = DecodeInstance(
                sim, tiny_spec, lambda s: done.append(s.request_id),
                fast_kernel=fast,
            )
            first = RequestState(
                request=Request(request_id=0, arrival_time=0.0,
                                input_len=100, output_len=50),
                phase=RequestPhase.WAITING_DECODE, generated=1,
            )
            inst.submit(first)
            second = RequestState(
                request=Request(request_id=1, arrival_time=0.0,
                                input_len=100, output_len=5),
                phase=RequestPhase.WAITING_DECODE, generated=1,
            )
            sim.schedule(0.05, lambda: inst.submit(second))
            sim.run()
            results[fast] = (
                done,
                tuple(first.token_times),
                tuple(second.token_times),
            )
        assert results[True] == results[False]
        assert results[True][0] == [1, 0]  # short newcomer finishes first

    @pytest.mark.parametrize("sanitized", [False, True])
    def test_arrival_exactly_on_step_boundary(self, tiny_spec, sanitized):
        """A pre-scheduled arrival on a step boundary joins at it.

        The per-step path schedules the step's end event when the step
        starts, after the arrival was scheduled, so at the tie the
        arrival fires first and the newcomer is admitted at this
        boundary.
        """
        first, boundaries = _first_request_alone(tiny_spec)
        second = Request(request_id=1, arrival_time=boundaries[4],
                         input_len=300, output_len=20)
        results = {}
        for fast in (True, False):
            sanitizer = SimSanitizer(strict=True)
            sim = sanitizer.simulation() if sanitized else Simulation()
            system = DecodeOnlySystem(sim, tiny_spec, fast_kernel=fast)
            if sanitized:
                sanitizer.watch_system(system)
            results[fast] = sorted(
                simulate_trace(system, [first, second]).records,
                key=lambda r: r.request_id,
            )
            if sanitized:
                sanitizer.check_quiesce()
        assert results[True] == results[False]
        assert len(results[True]) == 2

    def test_arrival_created_mid_step_fires_on_boundary(self, tiny_spec):
        """An arrival created mid-step that fires as the step ends waits.

        The step's end event was scheduled when the step started, before
        the arrival, so the per-step path admits first and the newcomer
        joins one step later.
        """
        first, boundaries = _first_request_alone(tiny_spec)
        second = Request(request_id=1, arrival_time=boundaries[4],
                         input_len=300, output_len=20)
        results = {}
        for fast in (True, False):
            sim = Simulation()
            system = DecodeOnlySystem(sim, tiny_spec, fast_kernel=fast)
            sim.schedule_at(
                (boundaries[3] + boundaries[4]) / 2,
                lambda: sim.schedule_at(
                    boundaries[4], lambda: system.submit(second)
                ),
            )
            results[fast] = sorted(
                simulate_trace(system, [first]).records,
                key=lambda r: r.request_id,
            )
        assert results[True] == results[False]
        assert len(results[True]) == 2


def _colocated_alone(spec):
    """A 50-token request arriving at 0 and its token times when alone.

    Token 0 ends the prefill; token ``k`` ends decode iteration ``k``.
    """
    first = Request(request_id=0, arrival_time=0.0,
                    input_len=100, output_len=50)
    sim = Simulation()
    state = RequestState(request=first)
    ColocatedInstance(sim, spec, lambda s: None, fast_kernel=False).submit(state)
    sim.run()
    return first, state.token_times


class TestColocatedParity:
    def test_finished_request_is_never_preempted(self, tiny_model):
        """A request done earlier in an iteration is not the victim.

        Request 0 takes the pool's last free block for its last token;
        request 1 then needs a block and none is free. Request 0 must
        not be evicted: it already finished in this iteration, and
        evicting it used to remove it from the batch twice.
        """
        spec = InstanceSpec(
            model=tiny_model, config=ParallelismConfig(1, 1),
            gpu=_small_gpu(tiny_model, 800),
        )
        assert spec.make_kv_manager().total_blocks == 50
        trace = [
            Request(request_id=0, arrival_time=0.0, input_len=16, output_len=2),
            Request(request_id=1, arrival_time=0.0, input_len=768, output_len=5),
        ]
        res = _parity(
            lambda sim, fast: ColocatedSystem(sim, spec, fast_kernel=fast), trace
        )
        assert res.completed == 2

    @pytest.mark.parametrize("queue", ["sjf", "edf"])
    def test_partly_prefilled_prompt_keeps_queue_head(self, tiny_model, queue):
        """A reordered queue must not stall a partly prefilled prompt.

        Request 1's prompt is prefilled in chunks and holds KV for all of
        it. Request 2 arrives mid-prompt; SJF/EDF put it first, but it
        cannot get KV. If it took the queue head, request 1 would stall
        with its KV, and request 0, alone and unable to grow, would
        iterate forever.
        """
        spec = InstanceSpec(
            model=tiny_model, config=ParallelismConfig(1, 1),
            gpu=_small_gpu(tiny_model, 800),
        )
        trace = [
            Request(request_id=0, arrival_time=0.0, input_len=200, output_len=200),
            Request(request_id=1, arrival_time=0.0, input_len=560, output_len=10),
            Request(request_id=2, arrival_time=0.01, input_len=40, output_len=10),
        ]
        results = {}
        for fast in (True, False):
            sim = Simulation()
            system = ColocatedSystem(
                sim, spec, policy="chunked", fast_kernel=fast,
                scheduling=SchedulingConfig(queue_policy=queue),
            )
            res = simulate_trace(system, trace, max_events=5_000)
            assert len(sim) == 0, "the simulation did not drain"
            results[fast] = _records(res)
        assert results[True] == results[False]
        by_finish = sorted(results[True], key=lambda r: r[3])
        assert [r[0] for r in by_finish] == [1, 2, 0]

    @pytest.mark.parametrize("sanitized", [False, True])
    def test_arrival_exactly_on_decode_boundary(self, tiny_spec, sanitized):
        """Under prefill_priority a pre-scheduled arrival on a boundary
        starts its prefill there, as in the per-step path."""
        first, boundaries = _colocated_alone(tiny_spec)
        second = Request(request_id=1, arrival_time=boundaries[4],
                         input_len=300, output_len=20)
        results = {}
        for fast in (True, False):
            sanitizer = SimSanitizer(strict=True)
            sim = sanitizer.simulation() if sanitized else Simulation()
            system = ColocatedSystem(sim, tiny_spec, fast_kernel=fast)
            if sanitized:
                sanitizer.watch_system(system)
            results[fast] = sorted(
                simulate_trace(system, [first, second]).records,
                key=lambda r: r.request_id,
            )
            if sanitized:
                sanitizer.check_quiesce()
        assert results[True] == results[False]
        assert results[True][1].prefill_queue_time == 0.0  # joined on time

    @pytest.mark.parametrize("policy", ["prefill_priority", "decode_priority"])
    def test_fail_mid_run_identical(self, tiny_spec, policy):
        """fail() mid-run charges the step in flight and writes tokens back."""
        first, boundaries = _colocated_alone(tiny_spec)
        others = [
            Request(request_id=i, arrival_time=0.001 * i,
                    input_len=64 * i, output_len=30 + 7 * i)
            for i in range(1, 6)
        ]
        fail_at = (boundaries[10] + boundaries[11]) / 2
        results = {}
        for fast in (True, False):
            sanitizer = SimSanitizer(strict=True)
            sim = sanitizer.simulation()
            system = ColocatedSystem(
                sim, tiny_spec, num_replicas=2, policy=policy, fast_kernel=fast,
                scheduling=SchedulingConfig(dispatch_policy="round_robin"),
            )
            sanitizer.watch_system(system)
            victim = system.instances[0]
            lost = []

            def fail(victim=victim, system=system, lost=lost):
                decoding = list(victim._kernel.active)
                system.fail_replica(victim.name)
                lost.extend(
                    (s.request_id, s.generated, tuple(s.token_times),
                     s.recompute_len)
                    for s in decoding
                )

            sim.schedule_at(fail_at, fail)
            res = simulate_trace(system, [first, *others])
            sanitizer.check_quiesce()
            results[fast] = (
                _records(res), lost,
                (victim.decode_iterations, victim.busy_time,
                 victim.tokens_generated),
            )
        assert results[True] == results[False]
        assert results[True][1]  # the victim was decoding when it died


class TestRunLength:
    def test_runs_outlast_foreign_events(self, opt13b):
        """Events elsewhere in the cluster do not end a decode run."""
        trace = generate_trace(
            get_dataset("sharegpt"), rate=4.0, num_requests=200,
            rng=np.random.default_rng(0),
        )
        spec = InstanceSpec(model=opt13b)
        results = {}
        for fast in (True, False):
            system = DisaggregatedSystem(
                Simulation(), spec, spec, num_prefill=2, num_decode=2,
                fast_kernel=fast,
            )
            results[fast] = simulate_trace(system, trace)
        assert _records(results[True]) == _records(results[False])
        assert results[True].completed == len(trace)
        assert 2 * results[True].events_processed <= results[False].events_processed

    def test_colocated_decode_iterations_run_as_macro_events(self, opt13b):
        """The vLLM baseline's decode iterations collapse into runs."""
        trace = generate_trace(
            get_dataset("sharegpt"), rate=4.0, num_requests=200,
            rng=np.random.default_rng(0),
        )
        spec = InstanceSpec(model=opt13b)
        results = {}
        for fast in (True, False):
            system = ColocatedSystem(
                Simulation(), spec, num_replicas=4, fast_kernel=fast
            )
            results[fast] = simulate_trace(system, trace)
        assert _records(results[True]) == _records(results[False])
        assert results[True].completed == len(trace)
        assert 4 * results[True].events_processed <= results[False].events_processed


# ----------------------------------------------------------------------
# Observability forces the exact per-step path.
# ----------------------------------------------------------------------
class TestObservabilityFallback:
    def test_tracer_disables_fast_path(self, tiny_spec):
        sim = Simulation()
        tracer = Tracer()
        inst = DecodeInstance(
            sim, tiny_spec, lambda s: None, tracer=tracer, fast_kernel=True
        )
        assert not inst._kernel.enabled

    def test_instrument_disables_fast_path(self, tiny_spec):
        sim = Simulation()
        inst = DecodeInstance(sim, tiny_spec, lambda s: None, fast_kernel=True)
        assert inst._kernel.enabled
        inst.instrument(MetricsRegistry())
        assert not inst._kernel.enabled

    def test_flag_off_disables_fast_path(self, tiny_spec):
        sim = Simulation()
        inst = DecodeInstance(sim, tiny_spec, lambda s: None, fast_kernel=False)
        assert not inst._kernel.enabled

    @pytest.mark.parametrize("observer", ["tracer", "profiler"])
    def test_colocated_observers_disable_runs(self, tiny_spec, observer):
        kwargs = {observer: Tracer() if observer == "tracer" else Profiler()}
        inst = ColocatedInstance(Simulation(), tiny_spec, lambda s: None, **kwargs)
        assert not inst._kernel.enabled

    @pytest.mark.parametrize("policy", ["combined", "chunked"])
    def test_mixed_policies_step_per_iteration(self, tiny_spec, policy):
        inst = ColocatedInstance(Simulation(), tiny_spec, lambda s: None,
                                 policy=policy)
        assert not inst._kernel.enabled

    def test_colocated_instrument_mid_run_falls_back(self, tiny_spec):
        """instrument() mid-run writes tokens back and steps per iteration.

        Gauges sample live state, so from the fallback on, token fields
        and KV blocks must match the reference path at every event, and
        so must the iteration counters once the step in flight ends (the
        per-step path charged that step when it started).
        """
        first, boundaries = _colocated_alone(tiny_spec)
        probes = [(boundaries[5] + boundaries[6]) / 2, boundaries[9],
                  (boundaries[20] + boundaries[21]) / 2]
        results = {}
        for fast in (True, False):
            sim = Simulation()
            inst = ColocatedInstance(
                sim, tiny_spec, lambda s: None, fast_kernel=fast
            )
            state = RequestState(request=first)
            inst.submit(state)
            seen = []

            def probe():
                counters = (inst.decode_iterations, inst.busy_time)
                if not seen:
                    inst.instrument(MetricsRegistry())
                    counters = ()
                seen.append((
                    state.generated, tuple(state.token_times),
                    inst.tokens_generated, inst._kv.used_blocks, counters,
                ))

            for at in probes:
                sim.schedule_at(at, probe)
            sim.run()
            results[fast] = (seen, tuple(state.token_times), inst.busy_time)
            assert not inst._kernel.enabled
        assert results[True] == results[False]
        assert results[True][0][0][0] == 6  # fields current at the fallback


# ----------------------------------------------------------------------
# Goodput verdicts are unchanged.
# ----------------------------------------------------------------------
class TestGoodputParity:
    def test_simu_decode_verdict_identical(self, tiny_spec):
        from repro.core.simulate import simu_decode
        from repro.workload.slos import SLO

        dataset = fixed_length_dataset(256, 24)
        slo = SLO(ttft=0.5, tpot=0.08)
        fast = simu_decode(
            tiny_spec, dataset, slo, num_requests=60, fast_kernel=True
        )
        slow = simu_decode(
            tiny_spec, dataset, slo, num_requests=60, fast_kernel=False
        )
        assert fast.goodput == slow.goodput
        assert fast.attainment_at_goodput == slow.attainment_at_goodput
        assert fast.trials == slow.trials
