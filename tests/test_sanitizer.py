"""SimSanitizer tests: inject synthetic invariant violations and prove
each detector fires; then prove the opposite — a sanitized golden-trace
run reports zero violations and produces byte-identical output.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.hardware import NVLINK
from repro.serving import ServingSystem, simulate_trace
from repro.simulator import (
    KVBlockManager,
    RequestPhase,
    SanitizerError,
    SimSanitizer,
    Simulation,
    TransferEngine,
    to_jsonl,
)
from repro.workload import Request, Trace
from tests.test_golden_trace import GOLDEN_FILE, build_golden_spans


def kinds(sanitizer: SimSanitizer) -> "list[str]":
    return [v.kind for v in sanitizer.violations]


# ----------------------------------------------------------------------
# Virtual-time monotonicity
# ----------------------------------------------------------------------

class TestTimeInvariants:
    def test_past_schedule_strict_raises(self):
        san = SimSanitizer(strict=True)
        sim = san.simulation()
        with pytest.raises(SanitizerError) as excinfo:
            sim.schedule(-1.0, lambda: None)
        assert excinfo.value.violation.kind == "past-schedule"

    def test_past_schedule_lenient_clamps_and_continues(self):
        san = SimSanitizer(strict=False)
        sim = san.simulation()
        fired = []
        sim.schedule(-0.5, lambda: fired.append(sim.now))
        sim.run()
        assert kinds(san) == ["past-schedule"]
        # The clamp dispatches the event at the current time, never earlier.
        assert fired == [0.0]

    def test_past_schedule_at_lenient_clamps(self):
        san = SimSanitizer(strict=False)
        sim = san.simulation()
        sim.schedule(1.0, lambda: sim.schedule_at(0.25, lambda: None))
        sim.run()
        assert kinds(san) == ["past-schedule"]
        assert sim.now >= 1.0

    def test_time_regression_detected(self):
        san = SimSanitizer(strict=False)
        sim = san.simulation()
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        # Tamper with the clock the way only buggy code could — the
        # pending t=1.0 event is now in the past.
        sim._now = 5.0
        sim.run()
        assert kinds(san) == ["time-regression"]
        # Lenient recovery: the clock never moves backwards.
        assert fired == [5.0]
        assert sim.now == 5.0

    def test_clean_run_has_no_violations(self):
        san = SimSanitizer(strict=True)
        sim = san.simulation()
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.run()
        assert order == ["a", "b"]
        assert san.ok
        assert san.report() == "SimSanitizer: 0 violations"


# ----------------------------------------------------------------------
# Request conservation
# ----------------------------------------------------------------------

class _FakeSystem:
    """Minimal system exposing the surface _SystemWatch observes."""

    def __init__(self) -> None:
        self.records: "list[object]" = []
        self.rejections = 0
        self.unfinished = 0

    def submit(self, request: object) -> None:
        self.unfinished += 1

    def _complete(self, state: object) -> None:
        self.unfinished -= 1
        self.records.append(state)


class TestConservation:
    def test_balanced_system_passes(self):
        san = SimSanitizer(strict=True)
        system = _FakeSystem()
        san.watch_system(system)
        states = [SimpleNamespace(request_id=i) for i in range(3)]
        for state in states:
            system.submit(state)
        for state in states:
            system._complete(state)
        san.check_quiesce()
        assert san.ok

    def test_stuck_request_detected(self):
        san = SimSanitizer(strict=False)
        system = _FakeSystem()
        san.watch_system(system)
        states = [SimpleNamespace(request_id=i) for i in range(3)]
        for state in states:
            system.submit(state)
        for state in states[:2]:
            system._complete(state)
        san.check_quiesce()
        assert kinds(san) == ["conservation"]
        assert "in flight" in san.violations[0].message

    def test_lost_request_detected(self):
        san = SimSanitizer(strict=False)
        system = _FakeSystem()
        san.watch_system(system)
        system.submit(SimpleNamespace(request_id=0))
        system.submit(SimpleNamespace(request_id=1))
        system._complete(SimpleNamespace(request_id=0))
        # Simulate an accounting bug: a request vanishes without being
        # completed, rejected, or left in flight.
        system.unfinished = 0
        san.check_quiesce()
        assert kinds(san) == ["conservation"]
        assert "arrivals (2)" in san.violations[0].message

    def test_stranded_requests_are_named(self):
        """Each stranded request: id, phase, time of its latest enqueue
        stamp or output token."""

        class AcceptsAndForgets(ServingSystem):
            def submit(self, request):
                state = self._register(request)
                if request.request_id == 1:
                    state.phase = RequestPhase.DECODING
                    state.stamp("decode_enqueue", 3.0)
                    state.record_token(3.25)

        san = SimSanitizer(strict=False)
        system = AcceptsAndForgets(san.simulation())
        san.watch_system(system)
        simulate_trace(system, Trace([Request(i, 0.5 * i, 8, 4) for i in range(11)]))
        san.check_quiesce()
        assert kinds(san) == ["conservation"]
        named = ", ".join(
            f"{i} (waiting_prefill since t={0.5 * i:.6f})" for i in range(2, 8)
        )
        assert san.violations[0].message == (
            "11 request(s) still in flight after the event queue drained — "
            "they can never complete: 0 (waiting_prefill since t=0.000000), "
            f"1 (decoding since t=3.250000), {named} (+3 more)"
        )
        assert san.violations[0].request_id == 0

    def test_duplicate_completion_detected(self):
        san = SimSanitizer(strict=False)
        system = _FakeSystem()
        san.watch_system(system)
        state = SimpleNamespace(request_id=7)
        system.submit(state)
        system._complete(state)
        system._complete(state)
        assert "duplicate-completion" in kinds(san)
        assert san.violations[0].request_id == 7


# ----------------------------------------------------------------------
# KV-block leaks
# ----------------------------------------------------------------------

class TestKvLeak:
    def test_leak_detected_with_holder_ids(self):
        san = SimSanitizer(strict=False)
        manager = KVBlockManager(total_blocks=8, block_size=16)
        san.watch_kv(manager, owner="prefill-0")
        manager.allocate(42, num_tokens=20)
        san.check_quiesce()
        assert kinds(san) == ["kv-leak"]
        violation = san.violations[0]
        assert violation.request_id == 42
        assert "prefill-0" in violation.message and "42" in violation.message

    def test_freed_blocks_pass(self):
        san = SimSanitizer(strict=True)
        manager = KVBlockManager(total_blocks=8, block_size=16)
        san.watch_kv(manager)
        manager.allocate(1, num_tokens=20)
        manager.free(1)
        san.check_quiesce()
        assert san.ok


# ----------------------------------------------------------------------
# Transfer-engine double-free
# ----------------------------------------------------------------------

class _DoubleFireEngine:
    """A buggy engine that invokes the completion callback twice."""

    def submit(self, request_id, num_bytes, link, on_done,
               num_parallel_channels=1):
        on_done()
        on_done()


class TestTransferWatch:
    def test_double_submit_detected(self):
        san = SimSanitizer(strict=False)
        sim = san.simulation()
        engine = TransferEngine(sim)
        san.watch_transfer_engine(engine)
        engine.submit(1, 1e6, NVLINK, lambda: None)
        engine.submit(1, 1e6, NVLINK, lambda: None)
        assert "transfer-double-submit" in kinds(san)
        assert san.violations[0].request_id == 1

    def test_resubmit_after_completion_is_fine(self):
        san = SimSanitizer(strict=True)
        sim = san.simulation()
        engine = TransferEngine(sim)
        san.watch_transfer_engine(engine)
        engine.submit(1, 1e6, NVLINK, lambda: None)
        sim.run()
        engine.submit(1, 1e6, NVLINK, lambda: None)
        sim.run()
        san.check_quiesce()
        assert san.ok

    def test_double_complete_detected(self):
        san = SimSanitizer(strict=False)
        engine = _DoubleFireEngine()
        san.watch_transfer_engine(engine)
        done = []
        engine.submit(3, 1e6, NVLINK, lambda: done.append(True))
        assert kinds(san) == ["transfer-double-complete"]
        assert san.violations[0].request_id == 3
        # The user callback still runs both times — the watch observes,
        # it does not change behavior.
        assert done == [True, True]

    def test_outstanding_transfer_at_quiesce_detected(self):
        san = SimSanitizer(strict=False)
        sim = san.simulation()
        engine = TransferEngine(sim)
        san.watch_transfer_engine(engine)
        engine.submit(9, 1e6, NVLINK, lambda: None)
        # Quiesce without running the simulation: the transfer's
        # completion event is still pending.
        san.check_quiesce()
        assert kinds(san) == ["transfer-outstanding"]
        assert san.violations[0].request_id == 9


# ----------------------------------------------------------------------
# Sanitized runs are byte-identical (acceptance criterion)
# ----------------------------------------------------------------------

class TestGoldenUnderSanitizer:
    def test_golden_trace_sanitized_byte_identical(self):
        san = SimSanitizer(strict=True)
        spans = build_golden_spans(sanitizer=san)
        san.check_quiesce()
        assert san.ok, san.report()
        assert to_jsonl(spans).encode("utf-8") == GOLDEN_FILE.read_bytes(), (
            "sanitized golden run diverged from the fixture — the "
            "sanitizer must be a pure observer"
        )

    def test_sanitized_equals_plain_run(self):
        plain = to_jsonl(build_golden_spans())
        san = SimSanitizer(strict=True)
        sanitized = to_jsonl(build_golden_spans(sanitizer=san))
        assert plain == sanitized

    def test_report_lists_violations(self):
        san = SimSanitizer(strict=False)
        sim = san.simulation()
        sim.schedule(-1.0, lambda: None)
        report = san.report()
        assert report.startswith("SimSanitizer: 1 violation(s)")
        assert "past-schedule" in report


class TestSimulationParity:
    def test_until_and_max_events_semantics_match_base(self):
        def drive(sim: Simulation) -> "tuple[list[float], float]":
            fired: "list[float]" = []
            for t in (0.5, 1.5, 2.5, 3.5):
                sim.schedule_at(t, lambda t=t: fired.append(t))
            sim.run(until=2.0)
            mid = sim.now
            sim.run(max_events=1)
            sim.run()
            return fired, mid

        base = drive(Simulation())
        sanitized = drive(SimSanitizer(strict=True).simulation())
        assert base == sanitized
