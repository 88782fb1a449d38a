"""Critical-path analysis tests: reconciliation, golden report, diffing.

The load-bearing property is *exact accounting*: for every completed
request, ``math.fsum`` of the seven phase durations equals its
end-to-end latency to within 1e-9 — decode execution is defined as the
residual, and a hypothesis test proves the tracked phases never
over-cover the window. On top of that sit byte-deterministic reports
(golden fixture, regenerate with
``PYTHONPATH=src python -m tests.test_critpath --regen``) and the
differential comparator's exhaustive delta attribution.
"""

from __future__ import annotations

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    PHASES,
    TTFT_PHASES,
    build_profile,
    critical_paths,
    diff_profiles,
    format_profile,
    format_profile_diff,
    profile_to_html,
    profile_to_json,
)
from repro.models import ModelArchitecture
from repro.serving import ColocatedSystem, DisaggregatedSystem, simulate_trace
from repro.simulator import (
    InstanceSpec,
    Profiler,
    Simulation,
    Span,
    SpanKind,
    Tracer,
)
from repro.workload import Request, Trace, generate_trace, get_dataset

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN_PROFILE = GOLDEN_DIR / "profile_disaggregated_seed0.json"

#: Pinned scenario — matches tests/test_golden_trace.py so the two
#: fixtures drift (or not) together.
SEED = 0
NUM_REQUESTS = 12
RATE = 4.0
DATASET = "humaneval"
SLO = (4.0, 0.2)

MODEL = ModelArchitecture(
    name="golden-1b",
    num_layers=16,
    hidden_size=2048,
    num_heads=16,
    ffn_size=8192,
)

PROP_MODEL = ModelArchitecture("critpath-prop", 8, 1024, 8, 4096)


def _hand_spans():
    """One fully hand-specified request lifecycle."""
    return [
        Span(1, SpanKind.ARRIVAL, 0.0, 0.0),
        Span(1, SpanKind.PREFILL_QUEUE, 0.1, 0.3, instance="prefill-0"),
        Span(1, SpanKind.PREFILL_EXEC, 0.3, 0.8, instance="prefill-0"),
        Span(1, SpanKind.DECODE, 0.8, 0.8, token_index=0),
        Span(1, SpanKind.KV_TRANSFER, 0.8, 1.0, instance="prefill-0->decode-0"),
        Span(1, SpanKind.DECODE_QUEUE, 1.0, 1.1, instance="decode-0"),
        Span(1, SpanKind.DECODE, 1.1, 1.5, instance="decode-0", token_index=2),
        Span(1, SpanKind.COMPLETION, 1.5, 1.5),
    ]


def build_golden_profile(fast_kernel=True):
    """Run the pinned scenario and build its profile report."""
    sim = Simulation()
    tracer = Tracer()
    profiler = Profiler()
    spec = InstanceSpec(model=MODEL)
    system = DisaggregatedSystem(
        sim, spec, spec, num_prefill=2, num_decode=2,
        tracer=tracer, profiler=profiler, fast_kernel=fast_kernel,
    )
    trace = generate_trace(
        get_dataset(DATASET), rate=RATE, num_requests=NUM_REQUESTS,
        rng=np.random.default_rng(SEED),
    )
    result = simulate_trace(system, trace)
    assert result.unfinished == 0
    return build_profile(
        tracer.spans,
        profiler=profiler,
        sim_time=result.sim_time,
        slo=SLO,
        meta={"mode": "disaggregated", "model": MODEL.name, "seed": SEED},
        num_gpus=result.num_gpus,
    )


def _run_profiled(mode: str, seed: int = 0, num_requests: int = 20):
    sim = Simulation()
    tracer = Tracer()
    profiler = Profiler()
    spec = InstanceSpec(model=MODEL)
    if mode == "disaggregated":
        system = DisaggregatedSystem(
            sim, spec, spec, num_prefill=1, num_decode=1,
            tracer=tracer, profiler=profiler,
        )
    else:
        system = ColocatedSystem(
            sim, spec, num_replicas=2, tracer=tracer, profiler=profiler,
        )
    trace = generate_trace(
        get_dataset(DATASET), rate=RATE, num_requests=num_requests,
        rng=np.random.default_rng(seed),
    )
    result = simulate_trace(system, trace)
    return tracer, profiler, result


class TestCriticalPaths:
    def test_hand_built_decomposition(self):
        (path,) = critical_paths(_hand_spans())
        assert path.request_id == 1
        assert path.dispatch == pytest.approx(0.1)
        assert path.prefill_queue == pytest.approx(0.2)
        assert path.prefill_exec == pytest.approx(0.5)
        assert path.kv_wait == 0.0          # no transfer events: all transmit
        assert path.kv_transmit == pytest.approx(0.2)
        assert path.decode_queue == pytest.approx(0.1)
        assert path.decode_exec == pytest.approx(0.4)
        assert path.first_token_time == pytest.approx(0.8)
        assert path.ttft == pytest.approx(0.8)
        assert path.num_tokens == 3
        assert path.tpot == pytest.approx(0.35)

    def test_reconciliation_is_exact(self):
        (path,) = critical_paths(_hand_spans())
        assert path.phase_sum == pytest.approx(path.end_to_end_latency, abs=1e-12)

    def test_ttft_breakdown_covers_window(self):
        (path,) = critical_paths(_hand_spans())
        breakdown = dict(zip(TTFT_PHASES, path.ttft_breakdown))
        assert breakdown["dispatch"] == pytest.approx(0.1)
        assert breakdown["prefill_queue"] == pytest.approx(0.2)
        assert breakdown["prefill_exec"] == pytest.approx(0.5)
        assert breakdown["ttft_other"] == pytest.approx(0.0, abs=1e-12)
        assert math.fsum(path.ttft_breakdown) == pytest.approx(path.ttft, abs=1e-9)

    def test_transfer_events_split_kv_wait_from_transmit(self):
        events = [(1, 0.8, 0.85, 1.0)]  # 0.15s on the wire
        (path,) = critical_paths(_hand_spans(), transfer_events=events)
        assert path.kv_wait == pytest.approx(0.05)
        assert path.kv_transmit == pytest.approx(0.15)
        # The split is internal to the KV phase: reconciliation holds.
        assert path.phase_sum == pytest.approx(path.end_to_end_latency, abs=1e-12)

    def test_incomplete_requests_skipped(self):
        spans = [
            Span(7, SpanKind.ARRIVAL, 0.0, 0.0),
            Span(7, SpanKind.PREFILL_QUEUE, 0.0, 1.0),
            # no completion, no tokens
            Span(8, SpanKind.COMPLETION, 2.0, 2.0),  # no arrival
        ]
        assert critical_paths(spans) == []

    def test_sorted_by_request_id(self):
        spans = []
        for rid in (3, 1, 2):
            spans.extend(
                [
                    Span(rid, SpanKind.ARRIVAL, 0.0, 0.0),
                    Span(rid, SpanKind.DECODE, 0.5, 0.5, token_index=0),
                    Span(rid, SpanKind.COMPLETION, 1.0, 1.0),
                ]
            )
        assert [p.request_id for p in critical_paths(spans)] == [1, 2, 3]


requests_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5.0),
        st.integers(min_value=1, max_value=768),
        st.integers(min_value=1, max_value=48),
    ),
    min_size=1,
    max_size=15,
)


class TestReconciliationProperty:
    """ISSUE acceptance: fsum(phases) == e2e within 1e-9, any workload."""

    @given(raw=requests_strategy, mode=st.sampled_from(["disaggregated", "colocated"]))
    @settings(max_examples=30, deadline=None)
    def test_fsum_reconciles_for_arbitrary_workloads(self, raw, mode):
        trace = Trace(
            requests=[
                Request(request_id=i, arrival_time=t, input_len=inp, output_len=out)
                for i, (t, inp, out) in enumerate(raw)
            ]
        )
        sim = Simulation()
        tracer = Tracer()
        profiler = Profiler()
        spec = InstanceSpec(model=PROP_MODEL)
        if mode == "disaggregated":
            system = DisaggregatedSystem(
                sim, spec, spec, num_prefill=1, num_decode=1,
                tracer=tracer, profiler=profiler,
            )
        else:
            system = ColocatedSystem(
                sim, spec, num_replicas=1, tracer=tracer, profiler=profiler,
            )
        result = simulate_trace(system, trace)
        paths = critical_paths(tracer.spans, transfer_events=profiler.transfer_events)
        assert len(paths) == len(result.records)
        for path in paths:
            assert abs(path.phase_sum - path.end_to_end_latency) <= 1e-9
            assert all(value >= 0.0 for value in path.phase_values())
            assert math.fsum(path.ttft_breakdown) == pytest.approx(
                path.ttft, abs=1e-9
            )


class TestBuildProfile:
    def test_report_shape_and_phase_fractions(self):
        report = build_golden_profile()
        assert report["schema"] == "repro-profile/2"
        assert report["summary"]["completed"] == NUM_REQUESTS
        assert set(report["phases"]) == set(PHASES)
        fractions = math.fsum(
            entry["fraction"] for entry in report["phases"].values()
        )
        assert fractions == pytest.approx(1.0, abs=1e-9)
        assert len(report["per_request"]) == NUM_REQUESTS

    def test_utilization_fractions_partition_unity(self):
        report = build_golden_profile()
        assert report["utilization"], "profiler wiring must yield instances"
        for entry in report["utilization"].values():
            total = (
                entry["busy_frac"]
                + entry["blocked_on_transfer_frac"]
                + entry["idle_frac"]
            )
            assert total == pytest.approx(1.0, abs=1e-9)
            occupancy = math.fsum(entry["batch_occupancy"].values())
            assert occupancy == pytest.approx(
                math.fsum(entry["phase_seconds"].values()), abs=1e-9
            )

    def test_disaggregated_interference_is_zero(self):
        report = build_golden_profile()
        for entry in report["interference"].values():
            assert entry["contended_seconds"] == 0.0

    def test_colocated_interference_detected_under_load(self):
        tracer, profiler, result = _run_profiled("colocated", num_requests=30)
        report = build_profile(
            tracer.spans, profiler=profiler, sim_time=result.sim_time
        )
        contended = math.fsum(
            entry["contended_seconds"]
            for entry in report["interference"].values()
        )
        assert contended > 0.0, "colocated replicas must show §3.1 contention"

    def test_degrades_without_profiler(self):
        tracer, _profiler, result = _run_profiled("disaggregated")
        report = build_profile(tracer.spans, sim_time=result.sim_time)
        assert report["utilization"] == {}
        assert report["summary"]["exec_events"] == 0
        for req in report["per_request"]:
            assert req["phases"]["kv_wait"] == 0.0  # no split without events

    def test_byte_deterministic_across_runs(self):
        assert profile_to_json(build_golden_profile()) == profile_to_json(
            build_golden_profile()
        )


class TestGoldenProfile:
    def test_fixture_exists(self):
        assert GOLDEN_PROFILE.exists(), (
            f"missing golden fixture {GOLDEN_PROFILE}; regenerate with "
            "`PYTHONPATH=src python -m tests.test_critpath --regen`"
        )

    def test_profile_matches_fixture_byte_for_byte(self):
        actual = profile_to_json(build_golden_profile()).encode("utf-8")
        expected = GOLDEN_PROFILE.read_bytes()
        assert actual == expected, (
            "profile report diverged from the golden fixture — either the "
            "simulator or the profiler/analysis pipeline drifted. If "
            "intentional, regenerate with `PYTHONPATH=src python -m "
            "tests.test_critpath --regen` and commit the fixture diff."
        )


    def test_reference_path_matches_fixture(self):
        """Observers ride the fast kernel: the per-step path agrees."""
        actual = profile_to_json(build_golden_profile(fast_kernel=False))
        assert actual.encode("utf-8") == GOLDEN_PROFILE.read_bytes()


class TestDiffProfiles:
    def _two_mode_reports(self):
        reports = {}
        for mode in ("colocated", "disaggregated"):
            tracer, profiler, result = _run_profiled(mode, num_requests=30)
            reports[mode] = build_profile(
                tracer.spans, profiler=profiler, sim_time=result.sim_time,
                slo=SLO, meta={"mode": mode}, num_gpus=result.num_gpus,
            )
        return reports["colocated"], reports["disaggregated"]

    def test_same_run_diff_is_zero(self):
        report = build_golden_profile()
        diff = diff_profiles(report, report)
        assert diff["matched"] == NUM_REQUESTS
        assert diff["only_a"] == diff["only_b"] == 0
        assert diff["e2e"]["delta_mean"] == 0.0
        for entry in diff["phases"].values():
            assert entry["delta_mean"] == 0.0

    def test_cross_mode_attribution_exceeds_95_percent(self):
        """ISSUE acceptance: ≥95% of the TTFT delta lands on named phases."""
        colocated, disaggregated = self._two_mode_reports()
        diff = diff_profiles(colocated, disaggregated)
        assert diff["matched"] == 30
        assert diff["ttft"]["attributed_fraction"] >= 0.95
        assert diff["e2e"]["attributed_fraction"] >= 0.95
        # Attribution is exhaustive: per-phase means fsum to the measured
        # per-request delta mean.
        for section in ("ttft", "e2e"):
            attributed = math.fsum(diff[section]["attributed"].values())
            assert attributed == pytest.approx(
                diff[section]["measured_delta_mean"], abs=1e-9
            )

    def test_goodput_section_present_with_slos(self):
        colocated, disaggregated = self._two_mode_reports()
        diff = diff_profiles(colocated, disaggregated)
        goodput = diff["goodput"]
        assert goodput is not None
        assert goodput["delta"] == pytest.approx(
            goodput["b_goodput_rps"] - goodput["a_goodput_rps"]
        )

    def test_rejects_wrong_schema(self):
        report = build_golden_profile()
        with pytest.raises(ValueError, match="repro-profile/2"):
            diff_profiles({"schema": "bogus"}, report)
        for not_an_object in ([report], "repro-profile/2"):
            with pytest.raises(ValueError, match="object"):
                diff_profiles(report, not_an_object)
        diff = diff_profiles(report, report)
        with pytest.raises(ValueError):
            diff_profiles(diff, report)  # a diff is not a profile

    def test_diff_roundtrips_through_json(self):
        report = build_golden_profile()
        serialized = json.loads(profile_to_json(report))
        diff = diff_profiles(serialized, serialized)
        assert diff["e2e"]["delta_mean"] == 0.0


class TestRenderers:
    def test_human_format_mentions_every_phase(self):
        text = format_profile(build_golden_profile())
        for name in PHASES:
            assert name in text
        assert "utilization" in text

    def test_diff_format_mentions_every_phase(self):
        report = build_golden_profile()
        text = format_profile_diff(diff_profiles(report, report))
        for name in PHASES:
            assert name in text

    def test_html_is_self_contained(self):
        html = profile_to_html(build_golden_profile())
        assert html.startswith("<!DOCTYPE html>")
        assert "<style>" in html
        for fragment in ("src=", "href=", "<script"):
            assert fragment not in html, "HTML report must embed everything"

    def test_html_dispatches_on_diff_schema(self):
        report = build_golden_profile()
        html = profile_to_html(diff_profiles(report, report))
        assert "Profile diff" in html


def _regen() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    report = build_golden_profile()
    GOLDEN_PROFILE.write_bytes(profile_to_json(report).encode("utf-8"))
    print(
        f"wrote profile of {report['summary']['completed']} requests "
        f"to {GOLDEN_PROFILE}"
    )


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
        sys.exit(2)
