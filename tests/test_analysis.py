"""Tests for SLO attainment, percentiles, breakdowns, and report tables."""

import pytest

from repro.analysis import (
    RequestCriticalPath,
    cdf_points,
    format_series,
    format_table,
    latency_breakdown,
    latency_summary,
    slo_attainment,
    tpot_percentile,
    ttft_percentile,
)
from repro.simulator import RequestRecord
from repro.workload import SLO


def make_record(request_id, ttft, tpot, **kw):
    defaults = dict(
        arrival_time=0.0,
        input_len=100,
        output_len=10,
        finish_time=ttft + tpot * 9,
    )
    defaults.update(kw)
    return RequestRecord(request_id=request_id, ttft=ttft, tpot=tpot, **defaults)


def make_path(request_id, ttft, tpot, dispatch=0.0, kv_wait=0.0, kv_transmit=0.0):
    """A 10-token critical path; 10% of TTFT (less dispatch) queues."""
    queue = 0.1 * ttft - dispatch
    transfer = kv_wait + kv_transmit
    return RequestCriticalPath(
        request_id=request_id,
        arrival_time=0.0,
        first_token_time=ttft,
        completion_time=ttft + transfer + tpot * 9,
        dispatch=dispatch,
        prefill_queue=queue,
        prefill_exec=0.9 * ttft,
        kv_wait=kv_wait,
        kv_transmit=kv_transmit,
        decode_queue=0.0,
        decode_exec=tpot * 9,
        ttft_breakdown=(dispatch, queue, 0.9 * ttft, 0.0),
        num_tokens=10,
    )


class TestSLOAttainment:
    def test_counts_each_category(self):
        slo = SLO(ttft=0.2, tpot=0.1)
        records = [
            make_record(0, 0.1, 0.05),   # meets both
            make_record(1, 0.3, 0.05),   # TTFT violated
            make_record(2, 0.1, 0.2),    # TPOT violated
            make_record(3, 0.3, 0.2),    # both violated
        ]
        rep = slo_attainment(records, slo)
        assert rep.total == 0.25
        assert rep.ttft_only == 0.5
        assert rep.tpot_only == 0.5

    def test_unfinished_count_as_violations(self):
        slo = SLO(ttft=1.0, tpot=1.0)
        records = [make_record(0, 0.1, 0.05)]
        rep = slo_attainment(records, slo, num_expected=4)
        assert rep.total == 0.25

    def test_num_expected_below_records_rejected(self):
        slo = SLO(ttft=1.0, tpot=1.0)
        with pytest.raises(ValueError):
            slo_attainment([make_record(0, 0.1, 0.05)] * 2, slo, num_expected=1)

    def test_empty(self):
        rep = slo_attainment([], SLO(1.0, 1.0))
        assert rep.total == 1.0 and rep.num_requests == 0

    def test_boundary_inclusive(self):
        slo = SLO(ttft=0.2, tpot=0.1)
        rep = slo_attainment([make_record(0, 0.2, 0.1)], slo)
        assert rep.total == 1.0


class TestPercentiles:
    def test_percentile_values(self):
        records = [make_record(i, ttft=0.01 * (i + 1), tpot=0.001 * (i + 1)) for i in range(100)]
        assert ttft_percentile(records, 50) == pytest.approx(0.505, rel=0.02)
        assert tpot_percentile(records, 90) == pytest.approx(0.0901, rel=0.02)

    def test_summary_keys(self):
        records = [make_record(i, 0.1, 0.02) for i in range(10)]
        s = latency_summary(records)
        for key in ("ttft_mean", "ttft_p90", "tpot_p99", "e2e_p50"):
            assert key in s
        assert s["ttft_mean"] == pytest.approx(0.1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ttft_percentile([])

    def test_cdf_points(self):
        xs, ys = cdf_points([3.0, 1.0, 2.0])
        assert list(xs) == [1.0, 2.0, 3.0]
        assert list(ys) == pytest.approx([1 / 3, 2 / 3, 1.0])
        with pytest.raises(ValueError):
            cdf_points([])


class TestBreakdown:
    def test_sums_and_fractions(self):
        paths = [make_path(i, 0.2, 0.05) for i in range(4)]
        bd = latency_breakdown(paths)
        assert bd.total == pytest.approx(
            sum(p.end_to_end_latency for p in paths)
        )
        fr = bd.fractions()
        assert sum(fr.values()) == pytest.approx(1.0)
        assert fr["decode_exec"] > fr["transfer"] == 0.0

    def test_stages_fold_phases(self):
        """Dispatch counts as prefill queueing; KV wait and transmit as
        transfer."""
        paths = [
            make_path(0, 0.2, 0.05, dispatch=0.005, kv_wait=0.25, kv_transmit=0.5),
            make_path(1, 0.2, 0.05),
        ]
        bd = latency_breakdown(paths)
        assert bd.prefill_queue == pytest.approx(2 * 0.1 * 0.2)
        assert bd.transfer == 0.75
        assert bd.total == pytest.approx(
            sum(p.end_to_end_latency for p in paths)
        )

    def test_empty_breakdown(self):
        bd = latency_breakdown([])
        assert bd.total == 0.0
        assert all(v == 0.0 for v in bd.fractions().values())


class TestReporting:
    def test_format_table_alignment(self):
        out = format_table(
            ["name", "value"], [["a", 1.5], ["bb", 2.25]], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert "1.500" in out and "2.250" in out

    def test_format_table_row_length_check(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_format_series(self):
        out = format_series("rate", [1, 2], {"sys": [0.5, 0.25]})
        assert "rate" in out and "sys" in out and "0.250" in out

    def test_format_series_short_column_nan(self):
        out = format_series("x", [1, 2], {"y": [0.5]})
        assert "nan" in out


class TestRecordValidation:
    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            make_record(0, -0.1, 0.05)
