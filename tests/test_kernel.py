"""Fast-forward kernel parity suite.

The kernel (macro-stepped decode runs + memoized batch latency, see
DESIGN.md §4h) promises *bitwise* equality with the per-step reference
path. Every test here runs the same workload twice — ``fast_kernel=True``
and ``fast_kernel=False`` — and asserts exact float equality on request
records, token timestamps, and instance counters. No tolerances.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from repro.analysis import critical_paths
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
from repro.simulator import kernel as kernel_module
from repro.simulator.colocated_instance import POLICIES, ColocatedInstance
from repro.simulator.decode_instance import DecodeInstance
from repro.simulator.kernel import DecodeKernel
from repro.simulator.kvcache import KVBlockManager
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

    @pytest.mark.parametrize("tp,pp", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_step_latency_array_fn_bitwise(self, tiny_model, tp, pp):
        """The array twin equals the scalar closure element by element."""
        coeffs = coefficients_from_roofline(A100_80GB)
        timer = DecodeStepTimer(tiny_model, ParallelismConfig(tp, pp), coeffs)
        rng = np.random.default_rng(10 * tp + pp)
        for batch in range(1, 257):
            contexts = np.concatenate(
                ([batch, 10**6], rng.integers(batch, 10**6, 30))
            )
            scalar = timer.step_latency_fn(batch)
            got = np.empty(len(contexts))
            timer.step_latency_array_fn(batch)(contexts, got)
            assert got.tolist() == [scalar(int(c)) for c in contexts]  # bitwise

    def test_decode_timer_empty_batch(self, tiny_model):
        coeffs = coefficients_from_roofline(A100_80GB)
        timer = DecodeStepTimer(tiny_model, ParallelismConfig(1, 1), coeffs)
        assert timer.request_latency(0, 0) == 0.0
        assert timer.step_latency_fn(0)(0) == 0.0
        out = np.ones(3)
        timer.step_latency_array_fn(0)(np.arange(3), out)
        assert out.tolist() == [0.0] * 3

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
# Decode-instance parity under queueing, jitter, and failures.
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


def _drive_decode(spec, fast, *, n=60, seed=7, fail_at=None):
    """Feed ``n`` decode requests; return (records, counters, done-count)."""
    rng = np.random.default_rng(seed)
    sim = Simulation()
    done = []
    inst = DecodeInstance(sim, spec, done.append, fast_kernel=fast)
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
    def test_reserved_admission_queues_identically(self, tiny_model):
        gpu = _small_gpu(tiny_model, 4000)
        spec = InstanceSpec(
            model=tiny_model, config=ParallelismConfig(1, 1), gpu=gpu
        )
        fast = _drive_decode(spec, True)
        slow = _drive_decode(spec, False)
        assert fast == slow

    def test_jitter_stream_identical(self, tiny_model):
        spec = InstanceSpec(
            model=tiny_model, config=ParallelismConfig(1, 1), jitter_sigma=0.08
        )
        assert _drive_decode(spec, True) == _drive_decode(spec, False)

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

    def test_runs_around_the_array_crossover(self, monkeypatch, tiny_model):
        """Runs just below and well above ``ARRAY_PLAN_MIN_STEPS`` match the
        per-step path bitwise, with jitter on and submits that cut runs.

        ``long`` plans a run alone that ``short``'s submit cuts to one
        step, refunding its draws; the two then run ``cross - 1`` steps
        (the scalar loop, taking the refunds); ``long`` alone plans a run
        of about ``7 * cross`` steps (the array path) that a newcomer's
        submit cuts, refunding draws again.
        """
        cross = kernel_module.ARRAY_PLAN_MIN_STEPS
        spec = InstanceSpec(
            model=tiny_model, config=ParallelismConfig(1, 1), jitter_sigma=0.08
        )
        # (on the array path, steps, refunds pending) of each planned run.
        runs, arrays = [], [False]
        plan, plan_arrays = DecodeKernel.plan, DecodeKernel._plan_arrays

        def logged_plan(kernel):
            refunds, arrays[0] = len(kernel._refunds), False
            planned = plan(kernel)
            runs.append((arrays[0], len(kernel._boundaries), refunds))
            return planned

        def logged_arrays(kernel, *args):
            arrays[0] = True
            return plan_arrays(kernel, *args)

        monkeypatch.setattr(DecodeKernel, "plan", logged_plan)
        monkeypatch.setattr(DecodeKernel, "_plan_arrays", logged_arrays)

        def state(request_id, output_len):
            state = RequestState(
                request=Request(request_id=request_id, arrival_time=0.0,
                                input_len=100, output_len=output_len),
                phase=RequestPhase.WAITING_DECODE, generated=1,
            )
            state.token_times.append(0.0)
            return state

        results = {}
        for fast in (True, False):
            runs.clear()
            sim = Simulation()
            long, short, newcomer = state(0, 8 * cross), state(1, cross), state(2, 5)
            done = []

            def on_done(finished):
                done.append(finished.request_id)
                if finished is short:
                    sim.schedule(0.2, lambda: inst.submit(newcomer))

            inst = DecodeInstance(sim, spec, on_done, fast_kernel=fast)
            inst.submit(long)
            inst.submit(short)
            sim.run()
            results[fast] = (
                done,
                [(s.generated, tuple(s.token_times)) for s in (long, short, newcomer)],
                (inst.steps_executed, inst.tokens_generated, inst.busy_time),
            )
            if fast:
                assert (False, cross - 1, cross * 8 - 2) in runs
                assert any(arrays and steps >= 4 * cross for arrays, steps, _ in runs)
                # Both cuts refunded draws that later runs took.
                assert sum(refunds > 0 for _, _, refunds in runs) >= 2
        assert results[True] == results[False]
        assert results[True][0] == [1, 2, 0]

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
        results, paths = {}, {}
        for fast in (True, False):
            sanitizer = SimSanitizer(strict=True)
            sim = sanitizer.simulation() if sanitized else Simulation()
            system = ColocatedSystem(sim, tiny_spec, fast_kernel=fast, tracer=Tracer())
            if sanitized:
                sanitizer.watch_system(system)
            result = simulate_trace(system, [first, second])
            results[fast] = sorted(result.records, key=lambda r: r.request_id)
            paths[fast] = critical_paths(result.spans)
            if sanitized:
                sanitizer.check_quiesce()
        assert results[True] == results[False]
        assert paths[True] == paths[False]
        assert paths[True][1].prefill_queue == 0.0  # joined on time

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

    def test_planning_reads_no_request_context(self, monkeypatch, tiny_model):
        """A run is planned from the kernel's running context total (one
        micro-batch) or its join-ordered context offsets (pp 2 and 4), so
        planning cost does not grow with the batch: ``plan()`` reads no
        request's context (DESIGN §4i), on either planning path."""
        planning, plans, reads = [False], [], []
        context_len, plan = RequestState.context_len.fget, DecodeKernel.plan

        def counted(state):
            if planning[0]:
                reads.append(state.request_id)
            return context_len(state)

        def tracked(kernel):
            planning[0] = True
            plans.append(len(kernel.active))
            try:
                return plan(kernel)
            finally:
                planning[0] = False

        monkeypatch.setattr(RequestState, "context_len", property(counted))
        monkeypatch.setattr(DecodeKernel, "plan", tracked)
        # Every run on the array path, then every run on the scalar loop.
        for pp, array_min_steps in itertools.product((1, 2, 4), (1, 10**9)):
            monkeypatch.setattr(kernel_module, "ARRAY_PLAN_MIN_STEPS", array_min_steps)
            plans.clear()
            spec = InstanceSpec(model=tiny_model, config=ParallelismConfig(1, pp))
            system = DecodeOnlySystem(Simulation(), spec)
            trace = [Request(request_id=i, arrival_time=0.0, input_len=64,
                             output_len=8 + i) for i in range(32)]
            assert simulate_trace(system, trace).completed == len(trace)
            assert max(plans) > 1 and reads == [], (pp, array_min_steps)

    def test_colocated_planning_makes_no_per_request_kv_calls(
        self, monkeypatch, tiny_spec
    ):
        """A colocated run's KV growth goes through the KV manager's
        growth group, so its cost does not grow with the batch: while
        ``plan()`` and ``_materialize()`` run, no per-request KV method
        is called, on either planning path."""
        inside, calls, batches = [False], [], []

        def watch(name):
            method = getattr(KVBlockManager, name)

            def counted(kv, *args):
                if inside[0]:
                    calls.append(name)
                return method(kv, *args)

            monkeypatch.setattr(KVBlockManager, name, counted)

        def track(name):
            method = getattr(DecodeKernel, name)

            def tracked(kernel, *args):
                inside[0] = True
                batches.append(len(kernel.active))
                try:
                    return method(kernel, *args)
                finally:
                    inside[0] = False

            monkeypatch.setattr(DecodeKernel, name, tracked)

        for name in ("tokens_of", "append", "can_append"):
            watch(name)
        for name in ("plan", "_materialize"):
            track(name)
        for array_min_steps in (1, 10**9):
            monkeypatch.setattr(kernel_module, "ARRAY_PLAN_MIN_STEPS", array_min_steps)
            batches.clear()
            system = ColocatedSystem(Simulation(), tiny_spec)
            trace = [Request(request_id=i, arrival_time=0.0, input_len=64,
                             output_len=8 + i) for i in range(32)]
            assert simulate_trace(system, trace).completed == len(trace)
            assert max(batches) > 1 and calls == []


# ----------------------------------------------------------------------
# Only the flag and the iteration policy pick the per-step path; an
# observer never does.
# ----------------------------------------------------------------------
def _metric_values(registry):
    return [
        (family.name, labels, child.value)
        for family in registry.families()
        for labels, child in family.children.items()
    ]


class TestObservabilityFallback:
    def test_tracer_keeps_fast_path(self, tiny_spec):
        inst = DecodeInstance(
            Simulation(), tiny_spec, lambda s: None, tracer=Tracer(),
            profiler=Profiler(), fast_kernel=True,
        )
        assert inst._kernel.enabled

    def test_instrument_keeps_fast_path(self, tiny_spec):
        inst = DecodeInstance(Simulation(), tiny_spec, lambda s: None,
                              fast_kernel=True)
        inst.instrument(MetricsRegistry())
        assert inst._kernel.enabled

    def test_flag_off_disables_fast_path(self, tiny_spec):
        sim = Simulation()
        inst = DecodeInstance(sim, tiny_spec, lambda s: None, fast_kernel=False)
        assert not inst._kernel.enabled

    @pytest.mark.parametrize("observer", ["tracer", "profiler"])
    def test_colocated_observers_keep_runs(self, tiny_spec, observer):
        kwargs = {observer: Tracer() if observer == "tracer" else Profiler()}
        inst = ColocatedInstance(Simulation(), tiny_spec, lambda s: None, **kwargs)
        assert inst._kernel.enabled

    @pytest.mark.parametrize("policy", ["combined", "chunked"])
    def test_mixed_policies_step_per_iteration(self, tiny_spec, policy):
        inst = ColocatedInstance(Simulation(), tiny_spec, lambda s: None,
                                 policy=policy)
        assert not inst._kernel.enabled

    def test_colocated_instrument_mid_run_matches_reference(self, tiny_spec):
        """instrument() mid-run: every metric equals the per-step path's.

        Reads bring the run up to date and charge the iteration in
        flight, so the samples agree at every probe, the first included,
        and the run goes on as a macro event.
        """
        first, boundaries = _colocated_alone(tiny_spec)
        probes = [(boundaries[5] + boundaries[6]) / 2, boundaries[9],
                  (boundaries[20] + boundaries[21]) / 2]
        kv_labels = {"phase": "colocated", "instance": "colocated-0"}
        results = {}
        for fast in (True, False):
            sim = Simulation()
            inst = ColocatedInstance(
                sim, tiny_spec, lambda s: None, fast_kernel=fast
            )
            state = RequestState(request=first)
            inst.submit(state)
            registry = MetricsRegistry()
            seen = []

            def probe():
                if not seen:
                    inst.instrument(registry)
                # KV first: no other read has brought the run up to date.
                kv = registry.get("repro_kv_blocks_used", kv_labels).value
                seen.append((kv, _metric_values(registry)))

            for at in probes:
                sim.schedule_at(at, probe)
            sim.run()
            results[fast] = (seen, tuple(state.token_times), inst.busy_time,
                             sim.events_processed)
            assert inst._kernel.enabled == fast
        assert results[True][:3] == results[False][:3]
        first_probe = dict(
            ((name, labels), value) for name, labels, value in results[True][0][0][1]
        )
        labels = ("colocated-0", "decode", "colocated")  # instance, kind, phase
        assert first_probe[("repro_iterations_total", labels)] == 6  # in flight
        assert results[True][3] < results[False][3]  # still macro runs


class TestCutoffCounters:
    """Counters read after a ``max_sim_time`` cutoff, a run in flight."""

    @staticmethod
    def _system(mode, spec, fast, profiler=None, sim=None):
        sim = sim if sim is not None else Simulation()
        if mode == "disaggregated":
            return DisaggregatedSystem(
                sim, spec, spec, num_prefill=2, num_decode=2,
                fast_kernel=fast, profiler=profiler,
            )
        return ColocatedSystem(sim, spec, num_replicas=2,
                               fast_kernel=fast, profiler=profiler)

    @staticmethod
    def _counters(system):
        if isinstance(system, DisaggregatedSystem):
            return [(i.steps_executed, i.tokens_generated, i.busy_time,
                     i.active_tokens) for i in system.decode_instances]
        return [(i.decode_iterations, i.tokens_generated, i.busy_time)
                for i in system.instances]

    def _check(self, mode, spec, trace, cutoffs):
        """The fast path, bare and sanitized, reads the reference's
        counters at every cutoff."""
        for cutoff in cutoffs:
            results = {}
            for fast, sanitized in ((False, False), (True, False), (True, True)):
                sim = SimSanitizer().simulation() if sanitized else Simulation()
                system = self._system(mode, spec, fast, sim=sim)
                simulate_trace(system, trace, max_sim_time=cutoff)
                results[fast, sanitized] = self._counters(system)
            assert results[True, False] == results[False, False], cutoff
            assert results[True, True] == results[False, False], cutoff

    @pytest.mark.parametrize("mode", ["disaggregated", "colocated"])
    def test_counters_match_reference_at_cutoffs(self, opt13b, mode):
        trace = generate_trace(
            get_dataset("sharegpt"), rate=4.0, num_requests=200,
            rng=np.random.default_rng(3),
        )
        self._check(mode, InstanceSpec(model=opt13b), trace, (5.0, 20.0, 37.3))

    @pytest.mark.parametrize("mode", ["disaggregated", "colocated"])
    def test_cutoff_exactly_on_a_step_boundary(self, opt13b, mode):
        """At a cutoff equal to a step's end, that step is done."""
        trace = generate_trace(
            get_dataset("sharegpt"), rate=4.0, num_requests=60,
            rng=np.random.default_rng(3),
        )
        spec = InstanceSpec(model=opt13b)
        profiler = Profiler()
        simulate_trace(self._system(mode, spec, False, profiler), trace)
        ends = [e[3] for e in profiler.exec_events if e[1] == "decode"]
        self._check(mode, spec, trace, ends[10::len(ends) // 8])


# ----------------------------------------------------------------------
# Goodput verdicts are unchanged.
# ----------------------------------------------------------------------
class TestGoodputParity:
    def test_simu_decode_verdict_identical(self, tiny_spec):
        from repro.core import max_goodput, phase_trial_setup
        from repro.core.simulate import PHASE_TRIAL_MIN_DURATION
        from repro.workload.slos import SLO

        dataset = fixed_length_dataset(256, 24)
        slo = SLO(ttft=0.5, tpot=0.08)

        def simu_decode(fast_kernel):
            factory, trial_slo = phase_trial_setup(
                "decode", tiny_spec, slo, fast_kernel=fast_kernel
            )
            return max_goodput(
                factory, dataset, trial_slo, num_requests=60,
                min_duration=PHASE_TRIAL_MIN_DURATION,
            )

        fast = simu_decode(fast_kernel=True)
        slow = simu_decode(fast_kernel=False)
        assert fast.goodput == slow.goodput
        assert fast.attainment_at_goodput == slow.attainment_at_goodput
        assert fast.trials == slow.trials
