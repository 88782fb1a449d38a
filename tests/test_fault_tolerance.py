"""Tests for the fault-injection extension (§4.3 future work).

The paper warns that disaggregation introduces fault *propagation*: a
decode-instance failure strands requests whose KV caches live only
there, forcing prefill recomputation. These tests exercise the failure
and recovery paths of both instance kinds.
"""

import numpy as np
import pytest

from repro.scheduling import SchedulingConfig
from repro.serving import DisaggregatedSystem, simulate_trace
from repro.simulator import Simulation
from repro.workload import SHAREGPT, fixed_length_dataset, generate_trace


def build(sim, tiny_spec, num_prefill=2, num_decode=2):
    return DisaggregatedSystem(
        sim, tiny_spec, tiny_spec, num_prefill=num_prefill, num_decode=num_decode
    )


class TestPrefillFailure:
    def test_all_requests_still_complete(self, tiny_spec, rng):
        trace = generate_trace(SHAREGPT, rate=8.0, num_requests=120, rng=rng)
        sim = Simulation()
        system = build(sim, tiny_spec)
        for req in trace:
            sim.schedule_at(req.arrival_time, lambda r=req: system.submit(r))
        sim.schedule(trace.duration / 2, lambda: system.fail_prefill("prefill-0"))
        sim.run()
        assert system.failures == 1
        assert len(system.prefill_instances) == 1
        assert len(system.records) == len(trace)

    def test_cannot_fail_last_instance(self, tiny_spec):
        sim = Simulation()
        system = build(sim, tiny_spec, num_prefill=1)
        with pytest.raises(RuntimeError, match="last prefill"):
            system.fail_prefill("prefill-0")

    def test_unknown_instance(self, tiny_spec):
        sim = Simulation()
        system = build(sim, tiny_spec)
        with pytest.raises(KeyError):
            system.fail_prefill("prefill-9")

    def test_failure_inflates_ttft_of_victims(self, tiny_spec):
        # A batch in flight at failure time must redo its prefill, so its
        # TTFT exceeds a clean run's.
        ds = fixed_length_dataset(1024, 4)
        trace = generate_trace(ds, rate=50.0, num_requests=30,
                               rng=np.random.default_rng(0))
        ttft = {}
        for inject in (False, True):
            sim = Simulation()
            system = build(sim, tiny_spec, num_prefill=2, num_decode=1)
            for req in trace:
                sim.schedule_at(req.arrival_time, lambda r=req: system.submit(r))
            if inject:
                sim.schedule(0.05, lambda: system.fail_prefill("prefill-0"))
            sim.run()
            assert len(system.records) == len(trace)
            ttft[inject] = max(r.ttft for r in system.records)
        assert ttft[True] > ttft[False]


class TestDecodeFailure:
    def test_victims_recompute_and_complete(self, tiny_spec, rng):
        trace = generate_trace(SHAREGPT, rate=8.0, num_requests=120, rng=rng)
        sim = Simulation()
        system = build(sim, tiny_spec)
        for req in trace:
            sim.schedule_at(req.arrival_time, lambda r=req: system.submit(r))
        sim.schedule(trace.duration / 2, lambda: system.fail_decode("decode-0"))
        sim.run()
        assert len(system.decode_instances) == 1
        assert len(system.records) == len(trace)
        # Token counts still exact despite recomputation.
        by_id = {r.request_id: r for r in trace}
        for rec in system.records:
            assert rec.output_len == by_id[rec.request_id].output_len

    def test_propagation_spikes_prefill_load(self, tiny_spec):
        # After a decode failure, victims re-enter the prefill pool: the
        # prefill instances run more batches than in a clean run.
        ds = fixed_length_dataset(256, 64)
        trace = generate_trace(ds, rate=30.0, num_requests=60,
                               rng=np.random.default_rng(1))
        batches = {}
        for inject in (False, True):
            sim = Simulation()
            system = build(sim, tiny_spec, num_prefill=1, num_decode=2)
            for req in trace:
                sim.schedule_at(req.arrival_time, lambda r=req: system.submit(r))
            if inject:
                sim.schedule(1.0, lambda: system.fail_decode("decode-0"))
            sim.run()
            assert len(system.records) == len(trace)
            batches[inject] = sum(
                p.batches_executed for p in system.prefill_instances
            )
        assert batches[True] > batches[False]

    def test_cannot_fail_last_decode(self, tiny_spec):
        sim = Simulation()
        system = build(sim, tiny_spec, num_decode=1)
        with pytest.raises(RuntimeError, match="last"):
            system.fail_decode("decode-0")

    def test_tpot_degrades_for_interrupted_requests(self, tiny_spec):
        ds = fixed_length_dataset(256, 128)
        trace = generate_trace(ds, rate=20.0, num_requests=40,
                               rng=np.random.default_rng(2))
        tpot = {}
        for inject in (False, True):
            sim = Simulation()
            system = build(sim, tiny_spec, num_prefill=1, num_decode=2)
            for req in trace:
                sim.schedule_at(req.arrival_time, lambda r=req: system.submit(r))
            if inject:
                sim.schedule(1.5, lambda: system.fail_decode("decode-1"))
            sim.run()
            tpot[inject] = max(r.tpot for r in system.records)
        assert tpot[True] > tpot[False]


class TestSJFQueuePolicy:
    def test_sjf_favors_short_prompts(self, tiny_spec):
        from repro.simulator import PrefillInstance, RequestState
        from repro.workload import Request

        order = {}
        for policy in ("fcfs", "sjf"):
            sim = Simulation()
            done = []
            inst = PrefillInstance(
                sim, tiny_spec,
                on_prefill_done=lambda s: done.append(s.request_id),
                scheduling=SchedulingConfig(
                    queue_policy=policy, batch_token_limit=256
                ),
            )
            # One long convoy-leader, then several short requests.
            lens = [2000, 64, 64, 64]
            for i, length in enumerate(lens):
                inst.submit(
                    RequestState(
                        request=Request(
                            request_id=i, arrival_time=0.0,
                            input_len=length, output_len=2,
                        )
                    )
                )
            sim.run()
            order[policy] = list(done)
        assert order["fcfs"][0] == 0          # convoy leader goes first
        assert order["sjf"][0] != 0           # SJF dodges the convoy
        assert sorted(order["sjf"]) == [0, 1, 2, 3]

    def test_aging_prevents_starvation(self, tiny_spec):
        from repro.simulator import PrefillInstance, RequestState
        from repro.workload import Request

        sim = Simulation()
        done = []
        inst = PrefillInstance(
            sim, tiny_spec,
            on_prefill_done=lambda s: done.append(s.request_id),
            scheduling=SchedulingConfig(queue_policy="sjf", batch_token_limit=128),
        )
        # A long request plus a steady stream of short ones.
        inst.submit(RequestState(request=Request(0, 0.0, 1500, 2)))
        for i in range(1, 40):
            sim.schedule_at(
                0.01 * i,
                lambda i=i: inst.submit(
                    RequestState(request=Request(i, 0.01 * i, 64, 2))
                ),
            )
        sim.run()
        assert 0 in done  # the long request eventually runs

    def test_invalid_policy(self, tiny_spec):
        from repro.simulator import PrefillInstance

        with pytest.raises(ValueError):
            PrefillInstance(
                Simulation(), tiny_spec, on_prefill_done=lambda s: None,
                scheduling=SchedulingConfig(queue_policy="lifo"),
            )
