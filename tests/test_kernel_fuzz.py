"""Differential fuzzing of the fast decode kernel against the per-step path.

Hypothesis generates workloads — bursts of equal arrival times, one- and
two-token outputs, a small KV pool (so requests queue for memory),
jitter, pipeline parallelism, every queue policy, and a mid-run instance
failure — and runs each with ``fast_kernel`` on and off under the strict
sanitizer. The two runs must agree bitwise on records, every request's
full token timeline, and the instance counters. The serving-system
suites add requests too large for the pool, which the system must
reject (the sanitizer fails a run that strands any), and every
scheduling-policy combination the system takes: queue, batch and
dispatch policy for the disaggregated system; queue and dispatch policy,
every iteration policy, and one or two replicas with an optional mid-run
``fail_replica()`` for the colocated one. The randomized dispatch
policies draw from separate generators seeded alike in the two runs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import ETHERNET_25G
from repro.latency import ParallelismConfig
from repro.models import ModelArchitecture
from repro.scheduling import (
    BATCH_POLICIES,
    DISPATCH_POLICIES,
    QUEUE_POLICIES,
    SchedulingConfig,
)
from repro.serving import ColocatedSystem, DisaggregatedSystem, simulate_trace
from repro.simulator import InstanceSpec, SimSanitizer
from repro.simulator.colocated_instance import POLICIES, ColocatedInstance
from repro.simulator.decode_instance import DecodeInstance
from repro.simulator.request import Request, RequestPhase, RequestState
from tests.test_kernel import _small_gpu

MODEL = ModelArchitecture(
    name="tiny-1b",
    num_layers=16,
    hidden_size=2048,
    num_heads=16,
    ffn_size=8192,
    vocab_size=32000,
    max_seq_len=2048,
)

#: KV pool size of every fuzzed instance: a few requests fill it.
KV_TOKENS = 800

#: (gap to the previous arrival, input_len, output_len); a zero gap makes
#: a burst of equal arrival times. The largest request (400 + 128 tokens)
#: fits an empty pool, so a lone decode instance strands nobody.
REQUESTS = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.floats(min_value=1e-4, max_value=0.05)),
        st.integers(min_value=8, max_value=400),
        st.one_of(st.sampled_from([1, 2]), st.integers(min_value=1, max_value=128)),
    ),
    min_size=1,
    max_size=20,
)

#: As REQUESTS, but some prompts exceed the ~800-token pool or fit it
#: only without their output, so a serving system rejects them at
#: submit().
OVERSIZED_REQUESTS = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.floats(min_value=1e-4, max_value=0.05)),
        st.one_of(
            st.integers(min_value=8, max_value=400),
            st.integers(min_value=600, max_value=900),
        ),
        st.one_of(st.sampled_from([1, 2]), st.integers(min_value=1, max_value=128)),
    ),
    min_size=1,
    max_size=20,
)


def _trace(rows) -> "list[Request]":
    trace = []
    t = 0.0
    for i, (gap, input_len, output_len) in enumerate(rows):
        t += gap
        trace.append(Request(request_id=i, arrival_time=t,
                             input_len=input_len, output_len=output_len))
    return trace


@lru_cache(maxsize=None)
def _spec(pp: int, jitter: float) -> InstanceSpec:
    """A spec whose KV pool holds about ``KV_TOKENS`` tokens."""
    return InstanceSpec(
        model=MODEL, config=ParallelismConfig(1, pp), jitter_sigma=jitter,
        gpu=_small_gpu(MODEL, KV_TOKENS, pp),
    )


def _timeline(states) -> "list[tuple]":
    return sorted(
        (s.request_id, s.generated, tuple(s.token_times), s.recompute_len)
        for s in states
    )


def _counters(inst: DecodeInstance) -> tuple:
    return (inst.steps_executed, inst.tokens_generated, inst.busy_time)


def _drive_decode(trace, spec, policy, fail_at, fast):
    """Feed ``trace`` to one decode instance as if prefill had just run."""
    sanitizer = SimSanitizer(strict=True)
    sim = sanitizer.simulation()
    done: "list[int]" = []
    inst = DecodeInstance(
        sim, spec, lambda s: done.append(s.request_id), fast_kernel=fast,
        scheduling=SchedulingConfig(queue_policy=policy),
    )
    sanitizer.watch_kv(inst._kv, owner=inst.name)
    states = []
    for request in trace:
        state = RequestState(
            request=request, phase=RequestPhase.WAITING_DECODE, generated=1
        )
        states.append(state)

        def arrive(state=state) -> None:
            state.token_times.append(sim.now)
            if state.is_finished:
                done.append(state.request_id)  # prefill made the only token
            else:
                inst.submit(state)

        sim.schedule_at(request.arrival_time, arrive)
    if fail_at is not None:
        sim.schedule_at(fail_at, inst.fail)
    sim.run()
    sanitizer.check_quiesce()
    return done, _timeline(states), _counters(inst)


class _Recording:
    """Keeps every request state so full token timelines can be compared."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.states: "list[RequestState]" = []

    def _register(self, request: Request) -> RequestState:
        state = super()._register(request)
        self.states.append(state)
        return state


class _RecordingSystem(_Recording, DisaggregatedSystem):
    pass


class _RecordingColocated(_Recording, ColocatedSystem):
    pass


#: Every scheduling triple (queue x batch x dispatch policy).
TRIPLES = st.builds(
    SchedulingConfig,
    queue_policy=st.sampled_from(QUEUE_POLICIES),
    batch_policy=st.sampled_from(BATCH_POLICIES),
    dispatch_policy=st.sampled_from(DISPATCH_POLICIES),
)

#: Seeds of the randomized dispatch policies' generators.
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _run_disaggregated(trace, num_prefill, mode, jitter, scheduling, seed, fast):
    sanitizer = SimSanitizer(strict=True)
    system = _RecordingSystem(
        sanitizer.simulation(), _spec(1, 0.0), _spec(1, jitter),
        num_prefill=num_prefill, num_decode=2, transfer_link=ETHERNET_25G,
        transfer_mode=mode, fast_kernel=fast, scheduling=scheduling,
        rng=np.random.default_rng(seed),
    )
    sanitizer.watch_system(system)
    result = simulate_trace(system, trace)
    sanitizer.check_quiesce()
    return (
        sorted(result.records, key=lambda r: r.request_id),
        system.rejections,
        _timeline(system.states),
        [_counters(inst) for inst in system.decode_instances],
    )


@given(
    rows=REQUESTS,
    jitter=st.sampled_from([0.0, 0.1]),
    pp=st.sampled_from([1, 2]),
    policy=st.sampled_from(QUEUE_POLICIES),
    fail_at=st.one_of(st.none(), st.floats(min_value=0.0, max_value=0.5)),
)
@settings(max_examples=100, deadline=None)
def test_decode_instance_matches_reference(rows, jitter, pp, policy, fail_at):
    trace = _trace(rows)
    spec = _spec(pp, jitter)
    fast = _drive_decode(trace, spec, policy, fail_at, fast=True)
    slow = _drive_decode(trace, spec, policy, fail_at, fast=False)
    assert fast == slow


@given(
    rows=OVERSIZED_REQUESTS,
    num_prefill=st.sampled_from([1, 2]),
    mode=st.sampled_from(["pull", "push"]),
    jitter=st.sampled_from([0.0, 0.1]),
    scheduling=TRIPLES,
    seed=SEEDS,
)
@settings(max_examples=60, deadline=None)
def test_disaggregated_matches_reference(rows, num_prefill, mode, jitter,
                                         scheduling, seed):
    trace = _trace(rows)
    args = (trace, num_prefill, mode, jitter, scheduling, seed)
    assert _run_disaggregated(*args, fast=True) == _run_disaggregated(
        *args, fast=False
    )


def _colocated_counters(inst: ColocatedInstance) -> tuple:
    return (inst.prefill_iterations, inst.decode_iterations,
            inst.mixed_iterations, inst.preemptions, inst.busy_time,
            inst.tokens_prefilled, inst.tokens_generated)


def _run_colocated(trace, spec, replicas, policy, scheduling, seed, fail_at,
                   fast):
    sanitizer = SimSanitizer(strict=True)
    sim = sanitizer.simulation()
    system = _RecordingColocated(
        sim, spec, num_replicas=replicas, policy=policy, fast_kernel=fast,
        scheduling=scheduling, rng=np.random.default_rng(seed),
    )
    sanitizer.watch_system(system)
    instances = list(system.instances)
    if fail_at is not None:
        sim.schedule_at(fail_at, lambda: system.fail_replica(instances[0].name))
    result = simulate_trace(system, trace)
    sanitizer.check_quiesce()
    return (
        sorted(result.records, key=lambda r: r.request_id),
        system.rejections,
        _timeline(system.states),
        [_colocated_counters(inst) for inst in instances],
    )


@given(
    rows=OVERSIZED_REQUESTS,
    policy=st.sampled_from(POLICIES),
    scheduling=st.builds(
        SchedulingConfig,
        queue_policy=st.sampled_from(QUEUE_POLICIES),
        dispatch_policy=st.sampled_from(DISPATCH_POLICIES),
    ),
    seed=SEEDS,
    pp=st.sampled_from([1, 2]),
    jitter=st.sampled_from([0.0, 0.1]),
    replicas=st.sampled_from([1, 2]),
    fail_at=st.one_of(st.none(), st.floats(min_value=0.0, max_value=0.5)),
)
@settings(max_examples=150, deadline=None)
def test_colocated_matches_reference(rows, policy, scheduling, seed, pp, jitter,
                                     replicas, fail_at):
    trace = _trace(rows)
    spec = _spec(pp, jitter)
    if replicas == 1:
        fail_at = None  # the last replica cannot fail
    args = (trace, spec, replicas, policy, scheduling, seed, fail_at)
    assert _run_colocated(*args, fast=True) == _run_colocated(*args, fast=False)
