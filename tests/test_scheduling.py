"""Tests for the pluggable scheduling layer (:mod:`repro.scheduling`).

Covers the three policy families (queue, batch-shaping, dispatch), the
rule that a partly prefilled prompt keeps the queue head, the frozen
:class:`SchedulingConfig` threading, search-fingerprint stability, and
the KV-release guarantees of instance failure.
"""

import numpy as np
import pytest

from repro.core.search import fingerprint
from repro.core.simulate import phase_trial_setup
from repro.latency import ParallelismConfig
from repro.scheduling import (
    BATCH_POLICIES,
    DISPATCH_POLICIES,
    QUEUE_POLICIES,
    ChunkedBatch,
    EDFQueue,
    SchedulingConfig,
    TokenBudgetBatch,
    make_batch_policy,
    make_dispatch_policy,
    make_queue_policy,
)
from repro.serving import (
    ColocatedSystem,
    DisaggregatedSystem,
    PrefillOnlySystem,
    simulate_trace,
)
from repro.serving.dispatch import Dispatcher
from repro.simulator import (
    InstanceSpec,
    PrefillInstance,
    RequestState,
    SimSanitizer,
    Simulation,
)
from repro.workload import SHAREGPT, SLO, Request, generate_trace
from tests.test_kernel import _small_gpu

from collections import deque


def make_states(lens_and_outs, start_id=0, arrival=0.0):
    return [
        RequestState(
            request=Request(
                request_id=start_id + i,
                arrival_time=arrival,
                input_len=inp,
                output_len=out,
            )
        )
        for i, (inp, out) in enumerate(lens_and_outs)
    ]


class TestSchedulingConfig:
    def test_frozen(self):
        cfg = SchedulingConfig()
        with pytest.raises(Exception):
            cfg.queue_policy = "sjf"  # type: ignore[misc]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"queue_policy": "lifo"},
            {"batch_policy": "continuous"},
            {"dispatch_policy": "sticky"},
            {"batch_token_limit": -1},
            {"batch_token_limit": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SchedulingConfig(**kwargs)

    def test_policy_tuples_cover_factories(self):
        for q in QUEUE_POLICIES:
            assert make_queue_policy(q, "prefill_enqueue").name == q
        for b in BATCH_POLICIES:
            assert make_batch_policy(b).name == b
        for d in DISPATCH_POLICIES:
            p = make_dispatch_policy(
                d, load_fn=lambda i: 0, rng=np.random.default_rng(0)
            )
            assert p.name == d


class TestEDFQueue:
    def test_reorders_by_deadline(self):
        """Every deadline is arrival plus one offset, so a failover victim
        that re-enters behind newer requests goes first."""
        newer = make_states([(100, 2), (100, 2)], start_id=0, arrival=5.0)
        older = make_states([(100, 2)], start_id=2, arrival=1.0)[0]
        q = EDFQueue().reorder(deque([*newer, older]), now=6.0, partial=None)
        assert [s.request_id for s in q] == [2, 0, 1]

    def test_stable_for_ties(self):
        states = make_states([(300, 2), (100, 2), (200, 2)], arrival=4.0)
        q = EDFQueue().reorder(deque(states[::-1]), now=5.0, partial=None)
        assert [s.request_id for s in q] == [2, 1, 0]

    def test_end_to_end_edf_order(self, tiny_spec):
        """EDF runs the earliest arrival first despite submission order."""
        sim = Simulation()
        done = []
        inst = PrefillInstance(
            sim,
            tiny_spec,
            on_prefill_done=lambda s: done.append(s.request_id),
            scheduling=SchedulingConfig(
                queue_policy="edf", batch_token_limit=tiny_spec.model.max_seq_len
            ),
        )
        big = tiny_spec.model.max_seq_len  # one request per batch
        for i, arrival in enumerate((0.003, 0.002, 0.001)):
            inst.submit(make_states([(big, 2)], start_id=i, arrival=arrival)[0])
        sim.run()
        # Batch formation is deferred to the event loop, so all three
        # are queued by the first reorder: arrival order wins over
        # submission order.
        assert done == [2, 1, 0]


class TestPartialKeepsHead:
    """A partly prefilled prompt holds KV for its whole length, so every
    queue policy keeps it at the head."""

    @pytest.mark.parametrize(
        "policy, order",
        [("fcfs", [0, 2, 1]), ("sjf", [0, 1, 2]), ("edf", [0, 2, 1])],
    )
    def test_reorder_puts_partial_first(self, policy, order):
        # A long partial prompt 0, a short newcomer 1 that sjf ranks
        # first among the rest, and an older preemption victim 2 pushed
        # ahead of both, which fcfs keeps and edf ranks ahead of 1.
        partial, short = make_states([(1500, 2), (40, 2)], arrival=1.0)
        victim = make_states([(900, 2)], start_id=2, arrival=0.5)[0]
        q = make_queue_policy(policy, "prefill_enqueue").reorder(
            deque([victim, partial, short]), now=2.0, partial=partial
        )
        assert [s.request_id for s in q] == order

    @pytest.mark.parametrize("system", ["prefill_only", "disaggregated"])
    def test_chunked_sjf_strands_nothing(self, tiny_model, system):
        """The 2,000-token head fills the 2,048-token pool at its first
        chunk; a shorter request ordered ahead of it could never
        allocate, and every request would strand."""
        spec = InstanceSpec(
            model=tiny_model, config=ParallelismConfig(1, 1),
            gpu=_small_gpu(tiny_model, 2048),
        )
        scheduling = SchedulingConfig(
            queue_policy="sjf", batch_policy="chunked", batch_token_limit=256
        )
        sanitizer = SimSanitizer(strict=True)
        sim = sanitizer.simulation()
        if system == "prefill_only":
            served = PrefillOnlySystem(sim, spec, scheduling=scheduling)
        else:
            served = DisaggregatedSystem(
                sim, spec, InstanceSpec(model=tiny_model),
                num_prefill=1, num_decode=1, scheduling=scheduling,
            )
        sanitizer.watch_system(served)
        trace = [
            Request(request_id=i, arrival_time=t, input_len=n, output_len=4)
            for i, (t, n) in enumerate([(0.0, 2000), (0.001, 100), (0.5, 40)])
        ]
        result = simulate_trace(served, trace)
        sanitizer.check_quiesce()
        assert result.completed == 3
        assert sanitizer.ok, sanitizer.report()


class TestBatchPolicies:
    def _kv(self, tiny_spec):
        return tiny_spec.make_kv_manager()

    def test_token_budget_matches_legacy_loop(self, tiny_spec):
        kv = self._kv(tiny_spec)
        queue = deque(make_states([(100, 2), (100, 2), (100, 2)]))
        batch = TokenBudgetBatch().form_prefill(queue, kv, limit=256)
        assert [c.state.request_id for c in batch] == [0, 1]
        assert all(c.first and c.final for c in batch)
        assert len(queue) == 1

    def test_chunked_bounds_every_batch(self, tiny_spec):
        kv = self._kv(tiny_spec)
        policy = ChunkedBatch()
        queue = deque(make_states([(1000, 2), (300, 2)]))
        limit = 256
        flat = []
        while queue:
            batch = policy.form_prefill(queue, kv, limit=limit)
            assert batch, "policy must make progress"
            assert sum(c.tokens for c in batch) <= limit
            flat.extend(
                (c.state.request_id, c.tokens, c.first, c.final)
                for c in batch
            )
        # Request 0 (1000 tokens) splits as 256+256+256+232; the final
        # 232-token chunk leaves 24 tokens of room that request 1's
        # first chunk fills in the same batch.
        chunks0 = [(t, f, fi) for (rid, t, f, fi) in flat if rid == 0]
        assert [t for (t, _, _) in chunks0] == [256, 256, 256, 232]
        assert [f for (_, f, _) in chunks0] == [True, False, False, False]
        assert [fi for (_, _, fi) in chunks0] == [False, False, False, True]
        assert sum(t for (rid, t, _, _) in flat if rid == 1) == 300

    def test_chunked_allocates_full_prompt_upfront(self, tiny_spec):
        kv = self._kv(tiny_spec)
        policy = ChunkedBatch()
        queue = deque(make_states([(1000, 2)]))
        policy.form_prefill(queue, kv, limit=256)
        assert kv.tokens_of(0) == 1000

    def test_chunked_reset_clears_progress(self, tiny_spec):
        kv = self._kv(tiny_spec)
        policy = ChunkedBatch()
        queue = deque(make_states([(1000, 2)]))
        policy.form_prefill(queue, kv, limit=256)
        assert policy.partial is queue[0]
        policy.reset()
        assert policy.partial is None

    def test_chunked_end_to_end_single_first_token(self, tiny_spec):
        """Chunked prefill completes every request exactly once."""
        sim = Simulation()
        done = []
        inst = PrefillInstance(
            sim,
            tiny_spec,
            on_prefill_done=lambda s: done.append(s.request_id),
            scheduling=SchedulingConfig(batch_policy="chunked", batch_token_limit=256),
        )
        for s in make_states([(1000, 2), (100, 2), (700, 2)]):
            inst.submit(s)
        sim.run()
        assert sorted(done) == [0, 1, 2]
        assert len(done) == 3  # one completion per request


class _FakeInstance:
    def __init__(self, name):
        self.name = name
        self.load = 0


class TestDispatchPolicies:
    def test_round_robin_survives_pool_shrink(self):
        pool = [_FakeInstance(i) for i in range(3)]
        p = make_dispatch_policy("round_robin", load_fn=lambda i: i.load)
        for _ in range(4):  # advance the cursor past index 0
            p.select(pool)
        pool.pop()  # shrink from 3 to 2
        chosen = [p.select(pool) for _ in range(6)]
        assert all(c in pool for c in chosen)
        # Still alternates over the survivors.
        assert {c.name for c in chosen} == {0, 1}

    @pytest.mark.parametrize("policy", ["random", "power_of_two"])
    def test_seeded_rng_determinism(self, policy):
        def run(seed):
            pool = [_FakeInstance(i) for i in range(8)]
            p = make_dispatch_policy(
                policy, load_fn=lambda i: i.load,
                rng=np.random.default_rng(seed),
            )
            picks = []
            for _ in range(100):
                inst = p.select(pool)
                inst.load += 1
                picks.append(inst.name)
            return picks

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_power_of_two_beats_random_on_tail(self):
        def max_load(policy):
            pool = [_FakeInstance(i) for i in range(8)]
            p = make_dispatch_policy(
                policy, load_fn=lambda i: i.load,
                rng=np.random.default_rng(0),
            )
            for _ in range(400):
                p.select(pool).load += 1
            return max(i.load for i in pool)

        # The classic balls-into-bins result: two choices collapse the
        # tail. With 400 balls into 8 bins the gap is decisive.
        assert max_load("power_of_two") < max_load("random")

    def test_random_policies_require_rng(self):
        for policy in ("random", "power_of_two"):
            with pytest.raises(ValueError, match="rng"):
                make_dispatch_policy(policy, load_fn=lambda i: i.load)

    def test_dispatcher_raises_before_counting(self):
        d = Dispatcher("least_loaded", load_fn=lambda i: i.load)
        with pytest.raises(ValueError):
            d.choose([])
        assert d.dispatches == 0  # the failed call must not count

    def test_least_loaded_ties_break_first(self):
        pool = [_FakeInstance(i) for i in range(3)]
        p = make_dispatch_policy("least_loaded", load_fn=lambda i: i.load)
        assert p.select(pool).name == 0


class TestFailureReleasesKV:
    def test_prefill_fail_frees_all_blocks(self, tiny_spec):
        sim = Simulation()
        inst = PrefillInstance(sim, tiny_spec, on_prefill_done=lambda s: None)
        for s in make_states([(500, 2), (500, 2), (500, 2)]):
            inst.submit(s)
        sim.run(until=1e-6)  # first batch in flight, rest queued
        inst.fail()
        assert inst._kv.used_blocks == 0
        assert inst._kv.holders() == []

    def test_chunked_fail_mid_prompt_frees_blocks(self, tiny_spec):
        sim = Simulation()
        inst = PrefillInstance(
            sim, tiny_spec, on_prefill_done=lambda s: None,
            scheduling=SchedulingConfig(batch_policy="chunked", batch_token_limit=128),
        )
        for s in make_states([(1000, 2), (600, 2)]):
            inst.submit(s)
        sim.run(until=1e-6)  # head prompt mid-chunk: queued AND in flight
        victims = inst.fail()
        assert inst._kv.used_blocks == 0
        assert len(victims) == 2  # deduped despite dual residency

    def test_sanitizer_quiesce_after_fault_injection(self, tiny_spec, rng):
        trace = generate_trace(SHAREGPT, rate=8.0, num_requests=60, rng=rng)
        sanitizer = SimSanitizer(strict=False)
        sim = sanitizer.simulation()
        system = DisaggregatedSystem(
            sim, tiny_spec, tiny_spec, num_prefill=2, num_decode=2
        )
        sanitizer.watch_system(system)
        for req in trace:
            sim.schedule_at(req.arrival_time, lambda r=req: system.submit(r))
        sim.schedule(trace.duration / 3, lambda: system.fail_prefill("prefill-0"))
        sim.schedule(trace.duration / 2, lambda: system.fail_decode("decode-0"))
        sim.run()
        sanitizer.check_quiesce()
        assert sanitizer.ok, sanitizer.report()

    def test_colocated_fail_replica(self, tiny_spec, rng):
        trace = generate_trace(SHAREGPT, rate=8.0, num_requests=60, rng=rng)
        sim = Simulation()
        system = ColocatedSystem(sim, tiny_spec, num_replicas=2)
        for req in trace:
            sim.schedule_at(req.arrival_time, lambda r=req: system.submit(r))
        sim.schedule(
            trace.duration / 2, lambda: system.fail_replica("colocated-0")
        )
        sim.run()
        assert system.failures == 1
        assert len(system.instances) == 1
        assert len(system.records) == len(trace)

    def test_colocated_fail_unknown_and_last(self, tiny_spec):
        sim = Simulation()
        system = ColocatedSystem(sim, tiny_spec, num_replicas=2)
        with pytest.raises(KeyError):
            system.fail_replica("nope")
        system.fail_replica("colocated-0")
        with pytest.raises(RuntimeError):
            system.fail_replica("colocated-1")


class TestSystemsWithPolicies:
    @pytest.mark.parametrize(
        "cfg",
        [
            SchedulingConfig(queue_policy="edf"),
            SchedulingConfig(queue_policy="sjf"),
            SchedulingConfig(batch_policy="chunked"),
            SchedulingConfig(dispatch_policy="round_robin"),
            SchedulingConfig(dispatch_policy="power_of_two"),
        ],
        ids=lambda c: f"{c.queue_policy}-{c.batch_policy}-{c.dispatch_policy}",
    )
    def test_disaggregated_completes_under_every_policy(
        self, tiny_spec, rng, cfg
    ):
        trace = generate_trace(SHAREGPT, rate=5.0, num_requests=50, rng=rng)
        sim = Simulation()
        system = DisaggregatedSystem(
            sim, tiny_spec, tiny_spec, num_prefill=2, num_decode=2,
            scheduling=cfg, rng=np.random.default_rng(0),
        )
        result = simulate_trace(system, trace)
        assert result.completed == len(trace)


    @pytest.mark.parametrize(
        "cfg, field",
        [
            (SchedulingConfig(batch_policy="chunked"), "batch_policy"),
            (SchedulingConfig(batch_token_limit=256), "batch_token_limit"),
        ],
    )
    def test_colocated_rejects_batch_settings(self, tiny_spec, cfg, field):
        """Colocated batches follow the iteration policy; a batch setting
        they would ignore is refused, naming the field."""
        with pytest.raises(ValueError, match=field):
            ColocatedSystem(Simulation(), tiny_spec, scheduling=cfg)


class TestFingerprintStability:
    def _slo(self):
        return SLO(ttft=4.0, tpot=0.2)

    def test_default_scheduling_preserves_fingerprint(self, tiny_spec):
        base, _ = phase_trial_setup("prefill", tiny_spec, self._slo())
        default_cfg, _ = phase_trial_setup(
            "prefill", tiny_spec, self._slo(), scheduling=SchedulingConfig()
        )
        assert fingerprint(base) == fingerprint(default_cfg)

    def test_non_default_scheduling_changes_fingerprint(self, tiny_spec):
        base, _ = phase_trial_setup("prefill", tiny_spec, self._slo())
        edf, _ = phase_trial_setup(
            "prefill", tiny_spec, self._slo(),
            scheduling=SchedulingConfig(queue_policy="edf"),
        )
        sjf, _ = phase_trial_setup(
            "prefill", tiny_spec, self._slo(),
            scheduling=SchedulingConfig(queue_policy="sjf"),
        )
        assert fingerprint(base) != fingerprint(edf)
        assert fingerprint(edf) != fingerprint(sjf)
