"""Tests for the metrics registry, SLO monitor, and exporters."""

import math

import numpy as np
import pytest

from repro.analysis import (
    phase_utilization,
    registry_snapshot,
    slo_attainment,
    to_prometheus_text,
    write_metrics_json,
    write_prometheus_text,
)
from repro.scheduling import DEFAULT_SCHEDULING
from repro.serving import (
    ColocatedSystem,
    DecodeOnlySystem,
    DisaggregatedSystem,
    PrefillOnlySystem,
    simulate_trace,
)
from repro.simulator import (
    Counter,
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    RequestRecord,
    Simulation,
    SloMonitor,
    exponential_buckets,
)
from repro.workload import SHAREGPT, SLO, generate_trace


def _record(request_id=0, ttft=0.1, tpot=0.01, arrival=0.0):
    return RequestRecord(
        request_id=request_id,
        arrival_time=arrival,
        input_len=16,
        output_len=4,
        ttft=ttft,
        tpot=tpot,
        finish_time=arrival + ttft + 3 * tpot,
    )


class TestInstruments:
    def test_counter_inc_and_guards(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_callback_backed_counter(self):
        box = {"v": 7}
        c = Counter(fn=lambda: box["v"])
        assert c.value == 7.0
        box["v"] = 9
        assert c.value == 9.0
        with pytest.raises(RuntimeError):
            c.inc()

    def test_gauge_set_inc_dec(self):
        g = Gauge()
        g.set(4.0)
        g.inc()
        g.dec(2.0)
        assert g.value == 3.0

    def test_callback_backed_gauge_guards(self):
        g = Gauge(fn=lambda: 1.0)
        with pytest.raises(RuntimeError):
            g.set(2.0)
        with pytest.raises(RuntimeError):
            g.inc()

    def test_histogram_buckets(self):
        h = Histogram(buckets=[1.0, 2.0, 4.0])
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(105.0)
        assert h.bucket_counts == [1, 1, 1]  # 100 overflows every bound
        assert h.cumulative_counts() == [1, 2, 3]

    def test_histogram_bounds_validation(self):
        with pytest.raises(ValueError):
            Histogram(buckets=[])
        with pytest.raises(ValueError):
            Histogram(buckets=[1.0, 1.0])
        with pytest.raises(ValueError):
            Histogram(buckets=[2.0, 1.0])

    def test_exponential_buckets(self):
        b = exponential_buckets(0.5, 2.0, 4)
        assert b == (0.5, 1.0, 2.0, 4.0)
        with pytest.raises(ValueError):
            exponential_buckets(0.0, 2.0, 4)
        with pytest.raises(ValueError):
            exponential_buckets(0.5, 1.0, 4)
        with pytest.raises(ValueError):
            exponential_buckets(0.5, 2.0, 0)

    def test_default_latency_buckets_span(self):
        assert DEFAULT_LATENCY_BUCKETS[0] == 0.001
        assert DEFAULT_LATENCY_BUCKETS[-1] > 100.0


class TestHistogramBucketBoundaries:
    """Satellite audit: exact `le`-edge placement (Prometheus semantics)."""

    def test_value_on_exact_bound_lands_in_that_bucket(self):
        h = Histogram(buckets=[1.0, 2.0, 4.0])
        for bound in (1.0, 2.0, 4.0):
            h.observe(bound)
        assert h.bucket_counts == [1, 1, 1]

    def test_exponential_bucket_edges(self):
        bounds = exponential_buckets(0.001, 2.0, 18)
        h = Histogram(buckets=bounds)
        # Every computed upper bound must fall in its own bucket, never
        # spill into the next one — the float products from
        # start*factor**i are exactly the stored bounds.
        for bound in bounds:
            h.observe(bound)
        assert h.bucket_counts == [1] * len(bounds)

    def test_below_first_and_above_last(self):
        h = Histogram(buckets=[1.0, 2.0])
        h.observe(-5.0)     # below every bound: first bucket
        h.observe(0.0)
        h.observe(2.0000001)  # above the last bound: +Inf only
        assert h.bucket_counts == [2, 0]
        assert h.count == 3

    def test_just_inside_and_just_outside_an_edge(self):
        h = Histogram(buckets=[1.0, 2.0, 4.0])
        h.observe(math.nextafter(2.0, -math.inf))  # largest float < 2.0
        h.observe(2.0)
        h.observe(math.nextafter(2.0, math.inf))   # smallest float > 2.0
        assert h.bucket_counts == [0, 2, 1]

    def test_nan_counts_only_toward_inf(self):
        h = Histogram(buckets=[1.0, 2.0])
        h.observe(float("nan"))
        assert h.count == 1
        assert h.bucket_counts == [0, 0]
        assert h.cumulative_counts() == [0, 0]  # +Inf (== count) still sees it

    def test_cumulative_counts_monotone_under_random_observations(self):
        rng = np.random.default_rng(11)
        h = Histogram(buckets=list(exponential_buckets(0.001, 2.0, 18)))
        for value in rng.exponential(scale=0.5, size=500):
            h.observe(float(value))
        cumulative = h.cumulative_counts()
        assert all(b >= a for a, b in zip(cumulative, cumulative[1:]))
        assert cumulative[-1] <= h.count  # +Inf bucket is count itself

    def test_export_bucket_lines_monotone_with_edge_values(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_edge", buckets=[1.0, 2.0, 4.0])
        for value in (1.0, 2.0, 4.0, 0.5, 9.0, float("nan")):
            h.observe(value)
        text = to_prometheus_text(reg)
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_edge_bucket")
        ]
        assert counts == sorted(counts), f"non-monotone buckets: {counts}"
        assert counts[-1] == 6  # +Inf == observation count, NaN included


class TestRegistry:
    def test_registration_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_x_total", "help", labels={"phase": "prefill"})
        b = reg.counter("repro_x_total", "ignored", labels={"phase": "prefill"})
        assert a is b
        assert len(reg) == 1

    def test_label_children_are_distinct(self):
        reg = MetricsRegistry()
        a = reg.gauge("repro_g", labels={"phase": "prefill"})
        b = reg.gauge("repro_g", labels={"phase": "decode"})
        assert a is not b
        a.set(1.0)
        assert reg.get("repro_g", {"phase": "prefill"}).value == 1.0
        assert reg.get("repro_g", {"phase": "decode"}).value == 0.0

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_x")
        with pytest.raises(ValueError):
            reg.gauge("repro_x")

    def test_labelname_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_x", labels={"phase": "p"})
        with pytest.raises(ValueError):
            reg.counter("repro_x", labels={"instance": "i"})

    def test_invalid_names(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("0bad")
        with pytest.raises(ValueError):
            reg.counter("repro_ok", labels={"0bad": "v"})

    def test_contains_and_get(self):
        reg = MetricsRegistry()
        reg.gauge("repro_g")
        assert "repro_g" in reg
        assert "repro_missing" not in reg
        with pytest.raises(KeyError):
            reg.get("repro_missing")

    def test_families_sorted(self):
        reg = MetricsRegistry()
        reg.counter("repro_z")
        reg.counter("repro_a")
        assert [f.name for f in reg.families()] == ["repro_a", "repro_z"]


class TestSloMonitor:
    def _monitor(self, window=10.0, registry=None):
        sim = Simulation()
        mon = SloMonitor(
            sim, SLO(ttft=1.0, tpot=0.1), window=window, registry=registry
        )
        return sim, mon

    def test_cumulative_matches_offline(self):
        sim, mon = self._monitor()
        records = [
            _record(0, ttft=0.5, tpot=0.05),   # both ok
            _record(1, ttft=2.0, tpot=0.05),   # ttft miss
            _record(2, ttft=0.5, tpot=0.5),    # tpot miss
            _record(3, ttft=1.0, tpot=0.1),    # boundary: <= attains
        ]
        for r in records:
            mon.observe_completion(r.ttft, r.tpot)
        offline = slo_attainment(records, mon.slo)
        cum = mon.cumulative_attainment()
        assert cum.total == offline.total
        assert cum.ttft_only == offline.ttft_only
        assert cum.tpot_only == offline.tpot_only
        assert cum.num_requests == offline.num_requests

    def test_window_evicts_old_completions(self):
        sim, mon = self._monitor(window=10.0)
        mon.observe_completion(ttft=5.0, tpot=0.01)  # violation at t=0
        sim._now = 20.0  # jump past the window
        mon.observe_completion(ttft=0.5, tpot=0.01)
        win = mon.windowed_attainment()
        assert win.num_requests == 1
        assert win.total == 1.0
        cum = mon.cumulative_attainment()
        assert cum.num_requests == 2
        assert cum.total == 0.5

    def test_empty_window_is_perfect(self):
        _sim, mon = self._monitor()
        assert mon.windowed_attainment().total == 1.0
        assert mon.cumulative_attainment().num_requests == 0

    def test_violation_streaks(self):
        _sim, mon = self._monitor()
        for ttft in (5.0, 5.0, 0.5, 5.0, 5.0, 5.0):
            mon.observe_completion(ttft=ttft, tpot=0.01)
        assert mon.violation_streak == 3
        assert mon.longest_violation_streak == 3

    def test_windowed_goodput_keys_and_span(self):
        sim, mon = self._monitor(window=10.0)
        sim._now = 5.0
        mon.observe_completion(ttft=0.5, tpot=0.01)
        mon.observe_completion(ttft=5.0, tpot=0.01)  # ttft miss, tpot ok
        gp = mon.windowed_goodput()
        assert gp["total"] == pytest.approx(1 / 5.0)
        assert gp["ttft"] == pytest.approx(1 / 5.0)
        assert gp["tpot"] == pytest.approx(2 / 5.0)

    def test_registry_self_registration(self):
        reg = MetricsRegistry()
        _sim, mon = self._monitor(registry=reg)
        for name in (
            "repro_slo_arrivals_total",
            "repro_slo_completions_total",
            "repro_slo_violations_total",
            "repro_slo_attainment_window",
            "repro_slo_attainment_cumulative",
            "repro_goodput_window_rps",
            "repro_slo_violation_streak",
            "repro_ttft_seconds",
            "repro_tpot_seconds",
        ):
            assert name in reg
        mon.observe_completion(ttft=5.0, tpot=0.01)
        violations = reg.get("repro_slo_violations_total", {"objective": "total"})
        assert violations.value == 1
        assert reg.get("repro_ttft_seconds").count == 1

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            SloMonitor(Simulation(), SLO(ttft=1.0, tpot=0.1), window=0.0)

    def test_describe_mentions_key_quantities(self):
        _sim, mon = self._monitor()
        text = mon.describe()
        assert "attainment" in text and "goodput" in text and "streak" in text


class TestPrometheusExport:
    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.counter("repro_c_total", "a counter", labels={"phase": "p"}).inc(3)
        reg.gauge("repro_g", "a gauge").set(1.5)
        text = to_prometheus_text(reg)
        assert "# HELP repro_c_total a counter\n" in text
        assert "# TYPE repro_c_total counter\n" in text
        assert 'repro_c_total{phase="p"} 3\n' in text
        assert "repro_g 1.5\n" in text

    def test_histogram_lines_are_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_h", buckets=[1.0, 2.0])
        h.observe(0.5)
        h.observe(1.5)
        h.observe(9.0)
        text = to_prometheus_text(reg)
        assert 'repro_h_bucket{le="1"} 1\n' in text
        assert 'repro_h_bucket{le="2"} 2\n' in text
        assert 'repro_h_bucket{le="+Inf"} 3\n' in text
        assert "repro_h_sum 11\n" in text
        assert "repro_h_count 3\n" in text

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.gauge("repro_g", labels={"name": 'a"b\\c\nd'}).set(1.0)
        text = to_prometheus_text(reg)
        assert 'name="a\\"b\\\\c\\nd"' in text

    def test_special_float_rendering(self):
        reg = MetricsRegistry()
        reg.gauge("repro_nan", fn=lambda: float("nan"))
        reg.gauge("repro_inf", fn=lambda: float("inf"))
        text = to_prometheus_text(reg)
        assert "repro_nan NaN" in text
        assert "repro_inf +Inf" in text

    def test_empty_registry_exports_empty(self):
        assert to_prometheus_text(MetricsRegistry()) == ""

    def test_json_snapshot_roundtrip(self, tmp_path):
        import json

        reg = MetricsRegistry()
        reg.counter("repro_c_total", labels={"phase": "p"}).inc(2)
        reg.histogram("repro_h", buckets=[1.0]).observe(0.5)
        snap = registry_snapshot(reg)
        assert snap["repro_c_total"]["samples"][0]["value"] == 2
        assert snap["repro_h"]["samples"][0]["buckets"] == {"1": 1}
        path = tmp_path / "m.json"
        write_metrics_json(str(path), reg)
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(snap, sort_keys=True)
        )

    def test_write_prometheus_text(self, tmp_path):
        reg = MetricsRegistry()
        reg.gauge("repro_g").set(2.0)
        path = tmp_path / "m.prom"
        write_prometheus_text(str(path), reg)
        assert path.read_text() == to_prometheus_text(reg)


def _instrumented_disagg_run(tiny_spec, seed=0, num_requests=40):
    sim = Simulation()
    system = DisaggregatedSystem(
        sim, tiny_spec, tiny_spec, num_prefill=2, num_decode=2
    )
    slo = SLO(ttft=1.0, tpot=0.1)
    registry = MetricsRegistry()
    monitor = SloMonitor(sim, slo, window=20.0, registry=registry)
    system.attach_monitor(monitor)
    system.instrument(registry)
    trace = generate_trace(
        SHAREGPT, rate=4.0, num_requests=num_requests,
        rng=np.random.default_rng(seed),
    )
    result = simulate_trace(system, trace)
    return system, registry, monitor, result, slo, trace


def sampled_mid_run(spec, observed, scheduling=DEFAULT_SCHEDULING, extra=None):
    """Records of a short disaggregated run, and its mid-run exports.

    When ``observed``, every counter and gauge is sampled every 0.25 s
    of the run and a Prometheus export is taken halfway through;
    ``extra(sim, system, registry)``, if given, registers more metrics
    first.
    """
    sim = Simulation()
    system = DisaggregatedSystem(
        sim, spec, spec, num_prefill=2, num_decode=2, scheduling=scheduling,
    )
    trace = generate_trace(
        SHAREGPT, rate=4.0, num_requests=40, rng=np.random.default_rng(5)
    )
    exports = []
    if observed:
        registry = MetricsRegistry()
        system.attach_monitor(SloMonitor(
            sim, SLO(ttft=1.0, tpot=0.1), window=20.0, registry=registry
        ))
        system.instrument(registry)
        if extra is not None:
            extra(sim, system, registry)
        registry.sample(sim, 0.25, until=trace.duration)
        sim.schedule_at(trace.duration / 2, lambda: exports.append(
            to_prometheus_text(registry)
        ))
    return simulate_trace(system, trace).records, exports


class TestSystemInstrumentation:
    def test_disaggregated_wiring(self, tiny_spec):
        system, reg, mon, result, slo, trace = _instrumented_disagg_run(tiny_spec)
        assert result.completed == len(trace)
        assert reg.get("repro_requests_submitted_total").value == len(trace)
        assert reg.get("repro_requests_completed_total").value == len(trace)
        assert reg.get("repro_requests_in_flight").value == 0
        # Every instance reported, under its own labels.
        for name in ("prefill-0", "prefill-1"):
            labels = {"phase": "prefill", "instance": name}
            assert reg.get("repro_batches_total", labels).value > 0
            assert reg.get("repro_busy_seconds_total", labels).value > 0
        assert reg.get("repro_kv_transfer_bytes_total").value > 0
        assert reg.get("repro_kv_transfers_total").value > 0
        dispatches = reg.get(
            "repro_dispatch_total", {"pool": "prefill", "policy": "least_loaded"}
        )
        assert dispatches.value == len(trace)
        # Monitor saw everything the system served.
        assert mon.arrived == len(trace)
        assert mon.completed == len(trace)

    def test_cumulative_attainment_matches_offline_exactly(self, tiny_spec):
        _sys, _reg, mon, result, slo, _trace = _instrumented_disagg_run(tiny_spec)
        offline = slo_attainment(result.records, slo)
        cum = mon.cumulative_attainment()
        assert cum.total == offline.total
        assert cum.ttft_only == offline.ttft_only
        assert cum.tpot_only == offline.tpot_only
        assert cum.num_requests == offline.num_requests

    def test_export_byte_deterministic_across_runs(self, tiny_spec):
        texts = [
            to_prometheus_text(_instrumented_disagg_run(tiny_spec, seed=7)[1])
            for _ in range(2)
        ]
        assert texts[0] == texts[1]
        assert texts[0]  # non-trivial export

    def test_sampling_mid_run_leaves_records_unchanged(self, tiny_spec):
        """Metric callbacks are pure reads: sampling every one of them
        while the run is in flight, and exporting mid-run, changes no
        record of the run."""
        bare, _ = sampled_mid_run(tiny_spec, observed=False)
        records, exports = sampled_mid_run(tiny_spec, observed=True)
        assert records == bare
        assert "repro_requests_in_flight" in exports[0]

    def test_phase_utilization(self, tiny_spec):
        _sys, reg, _mon, _res, _slo, _trace = _instrumented_disagg_run(tiny_spec)
        util = phase_utilization(reg)
        assert set(util) == {"prefill", "decode"}
        assert 0.0 < util["prefill"] <= 1.0
        assert 0.0 < util["decode"] <= 1.0
        assert phase_utilization(MetricsRegistry()) == {}

    def test_instrument_is_idempotent(self, tiny_spec):
        system, reg, _mon, _res, _slo, _trace = _instrumented_disagg_run(tiny_spec)
        before = to_prometheus_text(reg)
        system.instrument(reg)  # second call must not duplicate or reset
        assert to_prometheus_text(reg) == before

    def test_colocated_wiring(self, tiny_spec):
        sim = Simulation()
        system = ColocatedSystem(sim, tiny_spec, num_replicas=2)
        reg = MetricsRegistry()
        system.instrument(reg)
        trace = generate_trace(
            SHAREGPT, rate=3.0, num_requests=20, rng=np.random.default_rng(0)
        )
        result = simulate_trace(system, trace)
        assert result.completed == len(trace)
        labels = {"phase": "colocated", "instance": "colocated-0"}
        assert reg.get("repro_tokens_total", labels).value > 0
        kinds = {"prefill", "decode", "mixed"}
        total_iters = sum(
            reg.get(
                "repro_iterations_total",
                {"phase": "colocated", "instance": "colocated-0", "kind": kind},
            ).value
            for kind in kinds
        )
        assert total_iters > 0
        assert phase_utilization(reg) and "colocated" in phase_utilization(reg)

    def test_phase_only_wiring(self, tiny_spec):
        for cls, phase in ((PrefillOnlySystem, "prefill"),
                           (DecodeOnlySystem, "decode")):
            sim = Simulation()
            system = cls(sim, tiny_spec)
            reg = MetricsRegistry()
            system.instrument(reg)
            trace = generate_trace(
                SHAREGPT, rate=3.0, num_requests=10, rng=np.random.default_rng(1)
            )
            result = simulate_trace(system, trace)
            assert result.completed == len(trace)
            assert any(
                f.name == "repro_utilization" for f in reg.families()
            ), phase
            assert phase in phase_utilization(reg)

    def test_transfer_metrics(self, tiny_spec):
        _sys, reg, _mon, result, _slo, _trace = _instrumented_disagg_run(tiny_spec)
        hist = reg.get("repro_kv_transfer_seconds")
        assert hist.count == reg.get("repro_kv_transfers_completed_total").value
        assert reg.get("repro_kv_transfer_stall_seconds_total").value >= 0.0
        assert reg.get("repro_kv_transfer_bytes_total").value == sum(
            r.num_bytes for r in result.transfer_records
        )
