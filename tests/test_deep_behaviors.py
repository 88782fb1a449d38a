"""Deeper behavioral tests: backpressure, contention, bubbles, trade-offs."""

import numpy as np
import pytest

from repro.analysis import critical_paths
from repro.hardware import ETHERNET_25G, NVLINK, NetworkLink
from repro.latency import ParallelismConfig, coefficients_from_roofline
from repro.hardware import A100_80GB
from repro.models import ModelArchitecture
from repro.scheduling import SchedulingConfig
from repro.serving import ColocatedSystem, DisaggregatedSystem, simulate_trace
from repro.simulator import (
    InstanceSpec,
    PrefillInstance,
    RequestState,
    Simulation,
    Tracer,
)
from repro.workload import Request, Trace, fixed_length_dataset, generate_trace


class TestKVBackpressure:
    """The pull policy uses prefill memory as the queuing buffer (§4.3)."""

    def test_decode_memory_gates_prefill_drain(self, tiny_model, rng):
        # A decode instance too small to hold everything forces requests
        # to wait parked on the prefill side, yet all eventually finish.
        big = InstanceSpec(model=tiny_model)
        tiny_decode = InstanceSpec(model=tiny_model, max_batch_size=2)
        trace = generate_trace(
            fixed_length_dataset(128, 64), rate=20.0, num_requests=40, rng=rng
        )
        sim = Simulation()
        system = DisaggregatedSystem(sim, big, tiny_decode, tracer=Tracer())
        res = simulate_trace(system, trace, max_events=2_000_000)
        assert res.unfinished == 0
        # With a 2-slot decode instance, later requests must queue:
        # decode queuing shows up in the critical paths.
        waits = [p.decode_queue for p in critical_paths(res.spans)]
        assert max(waits) > 0.1

    def test_prefill_kv_exhaustion_blocks_admission(self, tiny_model):
        # A prefill instance whose KV pool is consumed by parked caches
        # stops admitting; releasing the parked cache unblocks it.
        spec = InstanceSpec(model=tiny_model)
        sim = Simulation()
        done = []
        inst = PrefillInstance(sim, spec, on_prefill_done=done.append)
        capacity = spec.kv_token_capacity()
        big_len = int(capacity * 0.7)
        for i in range(2):  # the second cannot fit while the first parks
            inst.submit(
                RequestState(
                    request=Request(
                        request_id=i, arrival_time=0.0,
                        input_len=big_len, output_len=2,
                    )
                )
            )
        sim.run()
        assert len(done) == 1  # second request blocked on KV
        inst.release_kv(done[0].request_id)
        sim.run()
        assert len(done) == 2  # release unblocked it


class TestTransferContention:
    def test_slow_fabric_serializes_and_queues(self, tiny_model, rng):
        # Over a slow cross-node fabric, concurrent migrations queue: the
        # p99 transfer wait far exceeds a single transfer's serialization
        # time.
        spec = InstanceSpec(model=tiny_model)
        trace = generate_trace(
            fixed_length_dataset(1024, 4), rate=30.0, num_requests=60, rng=rng
        )
        slow = NetworkLink("slow", bandwidth=2e9, latency=1e-4)
        sim = Simulation()
        system = DisaggregatedSystem(
            sim, spec, spec, num_prefill=2, num_decode=2, transfer_link=slow,
            tracer=Tracer(),
        )
        res = simulate_trace(system, trace, max_events=2_000_000)
        durations = sorted(t.duration for t in res.transfer_records)
        single = slow.time_for(tiny_model.kv_bytes_per_token * 1024)
        assert durations[0] == pytest.approx(single, rel=0.01)
        # Queueing means record durations measure only on-link time; the
        # lifecycle transfer stage captures the waiting too.
        stage_waits = [p.kv_wait + p.kv_transmit for p in critical_paths(res.spans)]
        assert max(stage_waits) > 3 * single

    def test_nvlink_keeps_transfer_invisible(self, tiny_model, rng):
        spec = InstanceSpec(model=tiny_model)
        trace = generate_trace(
            fixed_length_dataset(1024, 4), rate=30.0, num_requests=60, rng=rng
        )
        sim = Simulation()
        system = DisaggregatedSystem(
            sim, spec, spec, num_prefill=2, num_decode=2, transfer_link=NVLINK,
            tracer=Tracer(),
        )
        res = simulate_trace(system, trace, max_events=2_000_000)
        paths = critical_paths(res.spans)
        assert max(p.kv_wait + p.kv_transmit for p in paths) < 0.01


class TestPipelineBubbles:
    def test_uniform_batches_beat_alternating(self, tiny_model):
        """§3.3: non-uniform prompt lengths create pipeline bubbles; the
        same token volume in uniform batches finishes sooner."""
        spec = InstanceSpec(model=tiny_model, config=ParallelismConfig(1, 4))
        makespan = {}
        for label, lens in (
            ("uniform", [512] * 16),
            ("alternating", [64, 960] * 8),
        ):
            sim = Simulation()
            done = []
            inst = PrefillInstance(
                sim, spec,
                on_prefill_done=lambda s: (
                    done.append(sim.now), inst.release_kv(s.request_id)
                ),
                scheduling=SchedulingConfig(batch_token_limit=1),  # one request per batch
            )
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
            makespan[label] = max(done)
        # Equal total tokens, but the alternating stream inherits the
        # slow batch's cadence (bubbles) and cannot finish faster.
        assert makespan["alternating"] >= makespan["uniform"] * 0.99


class TestChunkedPrefillTrade:
    def test_chunking_protects_tpot_at_ttft_cost(self, rng):
        """§2.2: SARATHI 'essentially trades TTFT for TPOT'."""
        model = ModelArchitecture("trade-2b", 24, 2560, 32, 10240)
        spec = InstanceSpec(model=model)
        # Long prompts arriving while many requests decode.
        trace = generate_trace(
            fixed_length_dataset(1536, 48), rate=3.0, num_requests=120, rng=rng
        )
        stats = {}
        for policy in ("prefill_priority", "chunked"):
            sim = Simulation()
            system = ColocatedSystem(sim, spec, policy=policy, chunk_size=256)
            res = simulate_trace(system, trace, max_events=3_000_000)
            assert res.unfinished == 0
            tpots = sorted(r.tpot for r in res.records)
            ttfts = sorted(r.ttft for r in res.records)
            stats[policy] = (
                ttfts[len(ttfts) // 2],
                tpots[int(len(tpots) * 0.9)],
            )
        ttft_pp, tpot_pp = stats["prefill_priority"]
        ttft_ck, tpot_ck = stats["chunked"]
        assert tpot_ck < tpot_pp          # TPOT protected
        assert ttft_ck > ttft_pp * 0.95   # TTFT pays (or at best ties)


class TestDecodePipelineParallelism:
    def test_pp_sustains_more_concurrent_work(self, tiny_model, rng):
        """§3.2: inter-op decode scales capacity; at a rate that swamps a
        pp=1 instance's KV, pp=2 holds attainment."""
        coeffs = coefficients_from_roofline(A100_80GB)
        del coeffs  # capacity, not latency, is under test
        specs = {
            pp: InstanceSpec(
                model=tiny_model, config=ParallelismConfig(1, pp), max_batch_size=512
            )
            for pp in (1, 2)
        }
        assert specs[2].kv_token_capacity() > 1.5 * specs[1].kv_token_capacity()


class TestTraceEdgeCases:
    def test_simultaneous_arrivals(self, tiny_spec):
        trace = Trace(
            requests=[Request(i, 1.0, 128, 4) for i in range(20)]
        )
        sim = Simulation()
        system = DisaggregatedSystem(sim, tiny_spec, tiny_spec)
        res = simulate_trace(system, trace)
        assert res.unfinished == 0

    def test_single_request_trace(self, tiny_spec):
        trace = Trace(requests=[Request(0, 0.0, 64, 8)])
        sim = Simulation()
        system = ColocatedSystem(sim, tiny_spec)
        res = simulate_trace(system, trace)
        assert res.completed == 1
