"""Cross-module integration tests: paper-level behaviors end to end."""

import numpy as np
import pytest

from repro import quickserve
from repro.analysis import (
    critical_paths,
    latency_breakdown,
    slo_attainment,
    tpot_percentile,
    ttft_percentile,
)
from repro.hardware import NVLINK
from repro.latency import ParallelismConfig
from repro.serving import (
    ColocatedSystem,
    DisaggregatedSystem,
    simulate_trace,
)
from repro.simulator import InstanceSpec, Simulation, Tracer
from repro.workload import SHAREGPT, SLO, fixed_length_dataset, generate_trace


class TestQuickserve:
    def test_quickserve_end_to_end(self):
        res = quickserve(model="opt-13b", rate=2.0, num_requests=60)
        assert res.completed == 60
        assert res.unfinished == 0


class TestConservation:
    """Every request is accounted for, exactly once, with sane records."""

    @pytest.mark.parametrize("system_kind", ["colocated", "disaggregated"])
    def test_no_request_lost_or_duplicated(self, tiny_spec, rng, system_kind):
        trace = generate_trace(SHAREGPT, rate=6.0, num_requests=150, rng=rng)
        sim = Simulation()
        if system_kind == "colocated":
            system = ColocatedSystem(sim, tiny_spec, num_replicas=2)
        else:
            system = DisaggregatedSystem(
                sim, tiny_spec, tiny_spec, num_prefill=2, num_decode=1
            )
        res = simulate_trace(system, trace)
        assert res.unfinished == 0
        ids = [r.request_id for r in res.records]
        assert sorted(ids) == [r.request_id for r in trace]

    def test_token_count_exact(self, tiny_spec, rng):
        trace = generate_trace(SHAREGPT, rate=4.0, num_requests=80, rng=rng)
        sim = Simulation()
        system = DisaggregatedSystem(sim, tiny_spec, tiny_spec)
        res = simulate_trace(system, trace)
        by_id = {r.request_id: r for r in trace}
        for rec in res.records:
            assert rec.output_len == by_id[rec.request_id].output_len
            assert rec.input_len == by_id[rec.request_id].input_len

    def test_causality(self, tiny_spec, rng):
        trace = generate_trace(SHAREGPT, rate=6.0, num_requests=100, rng=rng)
        sim = Simulation()
        system = DisaggregatedSystem(sim, tiny_spec, tiny_spec)
        res = simulate_trace(system, trace)
        for rec in res.records:
            assert rec.finish_time >= rec.arrival_time + rec.ttft
            assert rec.ttft >= 0 and rec.tpot >= 0


class TestPaperBehaviors:
    """The headline qualitative claims, end to end on small models."""

    def test_disaggregation_beats_colocation_under_load(self, opt13b):
        """§1/Figure 1: same GPU count, the paper's 13B setting (512 in /
        64 out), moderate load — the 2-prefill/1-decode split sustains
        better attainment than 3 colocated replicas."""
        spec = InstanceSpec(model=opt13b)
        ds = fixed_length_dataset(512, 64)
        slo = SLO(ttft=0.2, tpot=0.1)
        rate, n = 6.0, 300
        trace = generate_trace(ds, rate=rate, num_requests=n, rng=np.random.default_rng(5))

        sim = Simulation()
        colo = ColocatedSystem(sim, spec, num_replicas=3)
        res_c = simulate_trace(colo, trace)
        att_c = slo_attainment(res_c.records, slo, num_expected=n).total

        sim = Simulation()
        disagg = DisaggregatedSystem(
            sim, spec, spec, num_prefill=2, num_decode=1, transfer_link=NVLINK
        )
        res_d = simulate_trace(disagg, trace)
        att_d = slo_attainment(res_d.records, slo, num_expected=n).total

        assert res_c.num_gpus == res_d.num_gpus == 3
        assert att_d > att_c

    def test_interference_visible_in_colocated_tpot(self, tiny_spec, rng):
        """Figure 2: colocated TPOT degrades with load much faster than
        disaggregated TPOT at identical arrival streams."""
        ds = fixed_length_dataset(1024, 32)
        trace = generate_trace(ds, rate=30.0, num_requests=300, rng=rng)
        sim = Simulation()
        res_c = simulate_trace(ColocatedSystem(sim, tiny_spec), trace)
        sim = Simulation()
        res_d = simulate_trace(
            DisaggregatedSystem(sim, tiny_spec, tiny_spec), trace
        )
        assert tpot_percentile(res_c.records) > 1.5 * tpot_percentile(res_d.records)

    def test_transfer_negligible_on_nvlink(self, tiny_spec, rng):
        """§6.3/Figure 10: KV transfer is a tiny share of lifecycle time."""
        trace = generate_trace(SHAREGPT, rate=5.0, num_requests=200, rng=rng)
        sim = Simulation()
        system = DisaggregatedSystem(
            sim, tiny_spec, tiny_spec, transfer_link=NVLINK, tracer=Tracer()
        )
        res = simulate_trace(system, trace)
        fractions = latency_breakdown(critical_paths(res.spans)).fractions()
        assert fractions["transfer"] < 0.05

    def test_prefill_tp_reduces_ttft(self, tiny_model, rng):
        """§3.1: intra-op parallelism cuts prefill execution time, hence
        TTFT at low load."""
        ds = fixed_length_dataset(1024, 8)
        trace = generate_trace(ds, rate=2.0, num_requests=60, rng=rng)
        p90 = {}
        for tp in (1, 2):
            spec = InstanceSpec(model=tiny_model, config=ParallelismConfig(tp, 1))
            sim = Simulation()
            system = DisaggregatedSystem(sim, spec, spec)
            res = simulate_trace(system, trace)
            p90[tp] = ttft_percentile(res.records)
        assert p90[2] < p90[1]

    def test_decode_pp_scales_capacity(self, tiny_model, rng):
        """§3.2: inter-op decode scaling increases KV capacity and hence
        the rate a decode pool can absorb without queue growth."""
        specs = {
            pp: InstanceSpec(model=tiny_model, config=ParallelismConfig(1, pp))
            for pp in (1, 2)
        }
        assert specs[2].kv_token_capacity() > specs[1].kv_token_capacity()

    def test_deterministic_given_seed(self, tiny_spec):
        traces = [
            generate_trace(
                SHAREGPT, rate=4.0, num_requests=50, rng=np.random.default_rng(9)
            )
            for _ in range(2)
        ]
        results = []
        for trace in traces:
            sim = Simulation()
            system = DisaggregatedSystem(sim, tiny_spec, tiny_spec)
            res = simulate_trace(system, trace)
            results.append([(r.request_id, r.ttft, r.tpot) for r in res.records])
        assert results[0] == results[1]
