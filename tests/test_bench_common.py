"""Tests for the benchmark helper layer (no expensive searches)."""

import json

import pytest

from benchmarks import check_perf
from benchmarks.common import (
    VLLM_TP,
    _placement_from_json,
    _placement_to_json,
    goodput_from_sweep,
    vllm_system_factory,
)
from repro.analysis import AttainmentReport
from repro.core import PhasePlan, Placement
from repro.latency import ParallelismConfig
from repro.simulator import Simulation


def report(total):
    return AttainmentReport(total=total, ttft_only=total, tpot_only=total, num_requests=10)


class TestGoodputFromSweep:
    def test_picks_last_passing_rate(self):
        rates = [1.0, 2.0, 3.0, 4.0]
        reports = [report(1.0), report(0.95), report(0.85), report(0.2)]
        assert goodput_from_sweep(rates, reports) == 2.0

    def test_zero_when_nothing_passes(self):
        assert goodput_from_sweep([1.0], [report(0.5)]) == 0.0

    def test_non_monotone_curves(self):
        # A noisy dip below target mid-sweep does not hide a later pass.
        rates = [1.0, 2.0, 3.0]
        reports = [report(0.95), report(0.89), report(0.91)]
        assert goodput_from_sweep(rates, reports) == 3.0


class TestPlacementSerialization:
    def test_roundtrip(self):
        placement = Placement(
            prefill=PhasePlan(ParallelismConfig(3, 2), 2, 4.5),
            decode=PhasePlan(ParallelismConfig(4, 2), 1, 9.0),
            kv_transfer_intra_node=True,
        )
        restored = _placement_from_json(_placement_to_json(placement))
        assert restored == placement

    def test_json_is_plain_data(self):
        placement = Placement(
            prefill=PhasePlan(ParallelismConfig(1, 1), 1, 1.0),
            decode=PhasePlan(ParallelismConfig(1, 1), 1, 1.0),
        )
        blob = json.dumps(_placement_to_json(placement))
        assert "prefill" in blob


class TestVLLMBaseline:
    def test_paper_tp_settings(self):
        # §6.1: intra-op 1, 4, 8 for the three OPT models.
        assert VLLM_TP == {"opt-13b": 1, "opt-66b": 4, "opt-175b": 8}

    @pytest.mark.parametrize("model_name", ["opt-13b", "opt-66b"])
    def test_factory_gpu_accounting(self, model_name):
        factory, gpus = vllm_system_factory(model_name, num_replicas=2)
        assert gpus == VLLM_TP[model_name] * 2
        system = factory(Simulation())
        assert system.num_gpus() == gpus


class TestPerfGate:
    """benchmarks/check_perf.py holds perfbench's exact outputs to BENCH_perf.json."""

    WORKLOAD = "disagg-sharegpt"

    @staticmethod
    def _results(values, traced_correct=True):
        """An untraced and a traced perfbench result carrying ``values``."""
        return tuple(
            {
                "correct": correct,
                "metrics": {name: {"value": values[name]} for name in names},
            }
            for correct, names in zip((True, traced_correct), check_perf.pinned_names())
        )

    def _committed(self):
        return json.loads(check_perf.RECORD.read_text())[self.WORKLOAD]

    def test_identical_values_pass(self):
        committed = self._committed()
        assert check_perf.differences(committed, *self._results(committed)) == []

    def test_changed_sim_value_fails(self):
        committed = self._committed()
        moved = dict(committed, sim_ttft_p99_s=committed["sim_ttft_p99_s"] * (1 + 1e-12))
        problems = check_perf.differences(committed, *self._results(moved))
        assert len(problems) == 1 and problems[0].startswith("sim_ttft_p99_s:")

    def test_moved_count_fails_in_either_direction(self):
        committed = self._committed()
        for delta in (-1, 1):
            moved = dict(committed)
            moved["decode_instance.events"] += delta
            problems = check_perf.differences(committed, *self._results(moved))
            assert len(problems) == 1 and problems[0].startswith("decode_instance.events:")

    def test_failed_output_check_fails(self):
        committed = self._committed()
        problems = check_perf.differences(
            committed, *self._results(committed, traced_correct=False))
        assert problems == ["perfbench --trace 1 failed its output checks"]

    def test_write_round_trips(self, tmp_path, monkeypatch):
        committed = self._committed()
        record = tmp_path / "BENCH_perf.json"
        record.write_text(json.dumps({"other": {"events.count": 7}}))
        results = {"values": committed, "traced_correct": True}
        monkeypatch.setattr(check_perf, "RECORD", record)
        monkeypatch.setattr(
            check_perf, "run_perfbench",
            lambda workload, trace: self._results(**results)[trace],
        )
        argv = ["--workload", self.WORKLOAD]
        assert check_perf.main(argv) == 1  # no entry yet
        assert check_perf.main(argv + ["--write"]) == 0
        assert json.loads(record.read_text()) == {
            "other": {"events.count": 7}, self.WORKLOAD: committed,
        }
        assert check_perf.main(argv) == 0
        results["traced_correct"] = False
        before = record.read_text()
        assert check_perf.main(argv + ["--write"]) == 1
        assert record.read_text() == before  # a failed run is never written

    def test_write_prints_each_changed_value(self, tmp_path, monkeypatch, capsys):
        committed = self._committed()
        record = tmp_path / "BENCH_perf.json"
        record.write_text(json.dumps({self.WORKLOAD: committed}))
        moved = dict(committed)
        moved["decode_instance.events"] += 1
        monkeypatch.setattr(check_perf, "RECORD", record)
        monkeypatch.setattr(
            check_perf, "run_perfbench",
            lambda workload, trace: self._results(moved)[trace],
        )
        assert check_perf.main(["--workload", self.WORKLOAD, "--write"]) == 0
        old, new = committed["decode_instance.events"], moved["decode_instance.events"]
        assert capsys.readouterr().out.splitlines() == [
            f"{self.WORKLOAD}: decode_instance.events: committed {old!r} -> measured {new!r}",
            f"{self.WORKLOAD}: wrote {len(committed)} values to BENCH_perf.json",
        ]
        assert json.loads(record.read_text()) == {self.WORKLOAD: moved}

    def test_record_covers_every_workload_and_metric(self):
        record = json.loads(check_perf.RECORD.read_text())
        assert sorted(record) == sorted(w["name"] for w in check_perf.spec()["workloads"])
        untraced, traced = check_perf.pinned_names()
        for workload, values in record.items():
            assert sorted(values) == sorted(untraced + traced), workload
