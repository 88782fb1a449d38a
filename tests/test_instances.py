"""Tests for prefill, decode, and colocated instances."""

import pytest

from repro.latency import ParallelismConfig
from repro.scheduling import SchedulingConfig, queue
from repro.simulator import (
    ColocatedInstance,
    DecodeInstance,
    InstanceSpec,
    PrefillInstance,
    RequestState,
    Simulation,
    SpanKind,
    Tracer,
)
from repro.workload import Request
from tests.test_kernel import _small_gpu


def make_states(lens_and_outs, start_id=0):
    return [
        RequestState(
            request=Request(
                request_id=start_id + i,
                arrival_time=0.0,
                input_len=inp,
                output_len=out,
            )
        )
        for i, (inp, out) in enumerate(lens_and_outs)
    ]


class TestInstanceSpec:
    def test_kv_capacity_positive(self, tiny_spec):
        assert tiny_spec.kv_token_capacity() > 0

    def test_more_gpus_more_capacity(self, opt66b):
        s2 = InstanceSpec(model=opt66b, config=ParallelismConfig(2, 1))
        s4 = InstanceSpec(model=opt66b, config=ParallelismConfig(2, 2))
        assert s4.kv_token_capacity() > s2.kv_token_capacity()

    def test_invalid_config_rejected(self, opt13b):
        with pytest.raises(ValueError):
            InstanceSpec(model=opt13b, config=ParallelismConfig(16, 1))

    def test_make_kv_manager(self, tiny_spec):
        kv = tiny_spec.make_kv_manager()
        assert kv.total_blocks == tiny_spec.kv_token_capacity() // tiny_spec.block_size


class TestPrefillInstance:
    def test_fcfs_completion_order(self, tiny_spec):
        sim = Simulation()
        done = []
        inst = PrefillInstance(sim, tiny_spec, on_prefill_done=lambda s: done.append(s.request_id))
        big = tiny_spec.model.max_seq_len  # force separate batches
        for state in make_states([(big, 2), (big, 2), (big, 2)]):
            inst.submit(state)
        sim.run()
        assert done == [0, 1, 2]

    def test_batch_shaping_respects_token_limit(self, tiny_spec):
        sim = Simulation()
        done = []
        inst = PrefillInstance(
            sim, tiny_spec, on_prefill_done=lambda s: done.append(sim.now),
            scheduling=SchedulingConfig(batch_token_limit=256),
        )
        # Two short prompts fit one batch; the third must wait.
        for state in make_states([(100, 2), (100, 2), (100, 2)]):
            inst.submit(state)
        sim.run()
        assert done[0] == done[1]  # batched together
        assert done[2] > done[1]

    def test_long_request_runs_alone(self, tiny_spec):
        sim = Simulation()
        done = []
        inst = PrefillInstance(
            sim, tiny_spec, on_prefill_done=lambda s: done.append((s.request_id, sim.now)),
            scheduling=SchedulingConfig(batch_token_limit=128),
        )
        for state in make_states([(1000, 2), (50, 2)]):
            inst.submit(state)
        sim.run()
        assert done[0][0] == 0 and done[1][0] == 1
        assert done[1][1] > done[0][1]

    def test_first_token_recorded_at_prefill_end(self, tiny_spec):
        sim = Simulation()
        out = []
        tracer = Tracer()
        inst = PrefillInstance(
            sim, tiny_spec, on_prefill_done=out.append, tracer=tracer
        )
        inst.submit(make_states([(200, 3)])[0])
        sim.run()
        state = out[0]
        prefill_end = next(
            s.end for s in tracer.spans if s.kind == SpanKind.PREFILL_EXEC
        )
        assert state.generated == 1
        assert state.token_times[0] == prefill_end
        assert prefill_end > 0

    def test_kv_held_until_released(self, tiny_spec):
        sim = Simulation()
        out = []
        inst = PrefillInstance(sim, tiny_spec, on_prefill_done=out.append)
        inst.submit(make_states([(200, 2)])[0])
        sim.run()
        assert inst.kv_tokens_held() >= 200
        inst.release_kv(out[0].request_id)
        assert inst.kv_tokens_held() == 0

    def test_pipeline_admits_before_completion(self, tiny_model):
        # pp=2: the second batch starts after one stage, not after the
        # full first-batch latency, so both finish sooner than serial.
        spec_pp = InstanceSpec(model=tiny_model, config=ParallelismConfig(1, 2))
        spec_serial = InstanceSpec(model=tiny_model, config=ParallelismConfig(1, 1))
        finish = {}
        for name, spec in (("pp", spec_pp), ("serial", spec_serial)):
            sim = Simulation()
            done = []
            inst = PrefillInstance(
                sim, spec, on_prefill_done=lambda s: done.append(sim.now),
                scheduling=SchedulingConfig(batch_token_limit=600),
            )
            for state in make_states([(600, 2), (600, 2)]):
                inst.submit(state)
            sim.run()
            finish[name] = done[-1]
        assert finish["pp"] < finish["serial"]


class TestDecodeInstance:
    def test_generates_all_tokens(self, tiny_spec):
        sim = Simulation()
        done = []
        inst = DecodeInstance(sim, tiny_spec, on_request_done=done.append)
        state = make_states([(100, 5)])[0]
        state.record_token(0.0)  # first token from (skipped) prefill
        inst.submit(state)
        sim.run()
        assert len(done) == 1
        assert done[0].is_finished
        assert done[0].generated == 5

    def test_continuous_batching_admits_midstream(self, tiny_spec):
        sim = Simulation()
        done = []
        inst = DecodeInstance(sim, tiny_spec, on_request_done=lambda s: done.append(s.request_id))
        first, second = make_states([(100, 50), (100, 5)])
        first.record_token(0.0)
        second.record_token(0.0)
        inst.submit(first)
        # Second arrives later but finishes first (fewer tokens).
        sim.schedule(0.05, lambda: inst.submit(second))
        sim.run()
        assert done == [1, 0]

    def test_memory_gate_blocks_admission(self, tiny_model):
        spec = InstanceSpec(model=tiny_model, max_batch_size=4)
        sim = Simulation()
        inst = DecodeInstance(sim, spec, on_request_done=lambda s: None)
        capacity = inst.kv_capacity_tokens()
        huge = RequestState(
            request=Request(
                request_id=0, arrival_time=0.0,
                input_len=max(1, capacity - 10), output_len=100,
            )
        )
        assert not inst.can_reserve(huge)

    def test_max_batch_size_respected(self, tiny_model):
        spec = InstanceSpec(model=tiny_model, max_batch_size=2)
        sim = Simulation()
        inst = DecodeInstance(sim, spec, on_request_done=lambda s: None)
        states = make_states([(50, 30)] * 5)
        for s in states:
            s.record_token(0.0)
            inst.submit(s)
        sim.run(until=0.01)
        assert inst.active_batch_size <= 2

    def test_load_counts_waiting_and_active(self, tiny_spec):
        sim = Simulation()
        inst = DecodeInstance(sim, tiny_spec, on_request_done=lambda s: None)
        states = make_states([(50, 10)] * 3)
        for s in states:
            s.record_token(0.0)
            inst.submit(s)
        assert inst.load == 3


class TestColocatedInstance:
    def _run(self, tiny_spec, policy, reqs=None, tracer=None):
        sim = Simulation()
        done = []
        inst = ColocatedInstance(
            sim, tiny_spec, on_request_done=done.append, policy=policy,
            tracer=tracer,
        )
        for state in make_states(reqs or [(200, 5), (300, 3)]):
            inst.submit(state)
        sim.run()
        return done, inst

    @pytest.mark.parametrize("policy", ["prefill_priority", "combined", "chunked"])
    def test_all_policies_complete_requests(self, tiny_spec, policy):
        done, _ = self._run(tiny_spec, policy)
        assert len(done) == 2
        assert all(s.is_finished for s in done)

    def test_records_well_formed(self, tiny_spec):
        tracer = Tracer()
        done, _ = self._run(tiny_spec, "prefill_priority", tracer=tracer)
        for state in done:
            rec = state.to_record()
            assert rec.ttft > 0
            assert rec.tpot >= 0
        # Colocated: no migration, so no transfer time.
        assert all(s.kind != SpanKind.KV_TRANSFER for s in tracer.spans)

    def test_prefill_priority_counts_iterations(self, tiny_spec):
        _, inst = self._run(tiny_spec, "prefill_priority")
        assert inst.prefill_iterations >= 1
        assert inst.decode_iterations >= 1
        assert inst.mixed_iterations == 0

    def test_chunked_uses_mixed_iterations(self, tiny_spec):
        _, inst = self._run(tiny_spec, "chunked", reqs=[(2000, 5)])
        # 2000-token prompt at 512 chunk size -> at least 4 mixed iterations.
        assert inst.mixed_iterations >= 4

    def test_chunked_single_first_token(self, tiny_spec):
        done, _ = self._run(tiny_spec, "chunked", reqs=[(1500, 4)])
        state = done[0]
        assert state.generated == 4
        assert len(state.token_times) == 4

    @pytest.mark.parametrize("queue_policy", ["fcfs", "sjf", "edf"])
    @pytest.mark.parametrize("fast_kernel", [True, False])
    def test_no_admission_pass_over_an_empty_queue(
        self, tiny_spec, queue_policy, fast_kernel
    ):
        """Under ``prefill_priority`` every iteration tries a prefill
        first; with nobody waiting it must not run the admission pass,
        which reorders the queue through its policy and admits nothing."""
        sim = Simulation()
        done = []
        inst = ColocatedInstance(
            sim, tiny_spec, on_request_done=done.append,
            fast_kernel=fast_kernel,
            scheduling=SchedulingConfig(queue_policy=queue_policy),
        )
        queue_lens = []
        admit = inst._try_admit_prefill

        def counting_admit(token_budget):
            queue_lens.append(len(inst._waiting))
            return admit(token_budget)

        inst._try_admit_prefill = counting_admit
        for i, state in enumerate(make_states([(200, 30), (300, 20), (100, 25)])):
            sim.schedule_at(0.02 * i, lambda s=state: inst.submit(s))
        sim.run()
        assert len(done) == 3
        assert queue_lens
        assert 0 not in queue_lens

    @pytest.mark.parametrize("fast_kernel", [True, False])
    def test_sjf_ranks_a_preempted_request_by_its_context(
        self, tiny_model, fast_kernel, monkeypatch
    ):
        """A preempted request recomputes its whole context, so SJF must
        rank it by that, not by its prompt: it waits behind a request
        whose prompt is longer than its prompt but shorter than its
        context. Without aging, so the rank is the length alone."""
        monkeypatch.setattr(queue, "SJF_AGING", 0.0)
        spec = InstanceSpec(
            model=tiny_model, config=ParallelismConfig(1, 1),
            gpu=_small_gpu(tiny_model, 480),
        )
        sim = Simulation()
        tracer = Tracer()
        inst = ColocatedInstance(
            sim, spec, on_request_done=lambda s: None, tracer=tracer,
            fast_kernel=fast_kernel,
            scheduling=SchedulingConfig(queue_policy="sjf"),
        )
        first, victim = make_states([(160, 300), (96, 300)])
        waiter = make_states([(150, 5)], start_id=2)[0]
        inst.submit(first)
        inst.submit(victim)
        sim.schedule_at(0.5, lambda: inst.submit(waiter))
        sim.run()
        assert inst.preemptions == 1
        preempted_at = next(
            s.start for s in tracer.spans if s.kind == SpanKind.PREEMPTED
        )
        last_token = max(
            s.token_index for s in tracer.spans_for(victim.request_id)
            if s.kind == SpanKind.DECODE and s.end <= preempted_at
        )
        context = victim.request.input_len + last_token + 1
        assert victim.request.input_len < waiter.request.input_len < context
        exec_starts = {
            rid: [s.start for s in tracer.spans_for(rid)
                  if s.kind == SpanKind.PREFILL_EXEC]
            for rid in (victim.request_id, waiter.request_id)
        }
        assert exec_starts[waiter.request_id][0] < exec_starts[victim.request_id][-1]

    def test_unknown_policy_rejected(self, tiny_spec):
        sim = Simulation()
        with pytest.raises(ValueError):
            ColocatedInstance(sim, tiny_spec, on_request_done=lambda s: None, policy="fifo")

    def test_interference_decode_stalls_during_prefill(self, tiny_model):
        # A long prompt arriving mid-decode must stretch the running
        # request's token gap (Figure 2's effect).
        spec = InstanceSpec(model=tiny_model)
        sim = Simulation()
        done = []
        inst = ColocatedInstance(sim, spec, on_request_done=done.append)
        decode_req = make_states([(64, 40)])[0]
        inst.submit(decode_req)
        long_prompt = RequestState(
            request=Request(request_id=99, arrival_time=0.0, input_len=2000, output_len=2)
        )
        sim.schedule(0.05, lambda: inst.submit(long_prompt))
        sim.run()
        gaps = [
            b - a
            for a, b in zip(decode_req.token_times, decode_req.token_times[1:])
        ]
        assert max(gaps) > 3 * min(gaps)


class TestPriorityPolicies:
    """§2.3: prioritizing either phase hurts the other's latency."""

    def _run_policy(self, tiny_spec, policy):
        import numpy as np

        from repro.workload import fixed_length_dataset, generate_trace

        trace = generate_trace(
            fixed_length_dataset(768, 48), rate=12.0, num_requests=150,
            rng=np.random.default_rng(4),
        )
        sim = Simulation()
        done = []
        inst = ColocatedInstance(
            sim, tiny_spec, on_request_done=done.append, policy=policy
        )
        for req in trace:
            sim.schedule_at(
                req.arrival_time,
                lambda r=req: inst.submit(RequestState(request=r)),
            )
        sim.run(max_events=2_000_000)
        records = [s.to_record() for s in done]
        import numpy as np

        return (
            float(np.percentile([r.ttft for r in records], 90)),
            float(np.percentile([r.tpot for r in records], 90)),
        )

    def test_each_priority_hurts_the_other_phase(self, tiny_spec):
        ttft_pp, tpot_pp = self._run_policy(tiny_spec, "prefill_priority")
        ttft_dp, tpot_dp = self._run_policy(tiny_spec, "decode_priority")
        # Prefill priority: better TTFT, worse TPOT. Decode priority: the
        # reverse. Neither fixes both — the paper's §2.3 observation.
        assert ttft_pp < ttft_dp
        assert tpot_dp < tpot_pp

    def test_decode_priority_completes_everything(self, tiny_spec):
        sim = Simulation()
        done = []
        inst = ColocatedInstance(
            sim, tiny_spec, on_request_done=done.append, policy="decode_priority"
        )
        for state in make_states([(200, 5), (300, 3), (100, 8)]):
            inst.submit(state)
        sim.run()
        assert len(done) == 3
        assert all(s.is_finished for s in done)
