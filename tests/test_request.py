"""Tests for request lifecycle state and latency records."""

import pytest

from repro.simulator import RequestPhase, RequestState
from repro.workload import Request


def make_state(input_len=100, output_len=5, arrival=1.0) -> RequestState:
    return RequestState(
        request=Request(
            request_id=1, arrival_time=arrival, input_len=input_len, output_len=output_len
        )
    )


class TestRequestState:
    def test_initial_phase(self):
        state = make_state()
        assert state.phase is RequestPhase.WAITING_PREFILL
        assert state.generated == 0
        assert state.context_len == 100
        assert state.remaining_tokens == 5

    def test_context_grows_with_tokens(self):
        state = make_state()
        state.record_token(2.0)
        assert state.generated == 1
        assert state.context_len == 101

    def test_over_generation_rejected(self):
        state = make_state(output_len=1)
        state.record_token(2.0)
        with pytest.raises(RuntimeError):
            state.record_token(3.0)

    def test_stamp_first_write_wins(self):
        state = make_state()
        state.stamp("prefill_enqueue", 2.0)
        state.stamp("prefill_enqueue", 9.0)
        assert state.timestamps["prefill_enqueue"] == 2.0

    def test_record_requires_finish(self):
        state = make_state()
        with pytest.raises(RuntimeError):
            state.to_record()

    def test_latencies_keep_the_record_checks(self):
        """The trial path judges ``latencies()`` without a record, so it
        raises what ``to_record`` raises."""
        state = make_state(output_len=2, arrival=1.0)
        state.record_token(1.5)
        with pytest.raises(RuntimeError):
            state.latencies()
        state.record_token(2.5)
        assert state.latencies() == (0.5, 1.0)
        early = make_state(output_len=1, arrival=1.0)
        early.record_token(0.5)  # first token before arrival
        with pytest.raises(ValueError):
            early.latencies()
        backwards = make_state(output_len=2, arrival=1.0)
        backwards.record_tokens([2.0, 1.5])  # last token before the first
        with pytest.raises(ValueError):
            backwards.latencies()


class TestRequestRecord:
    def test_ttft_and_tpot(self):
        state = make_state(output_len=3, arrival=1.0)
        state.record_token(1.5)   # first token at prefill end
        state.record_token(2.0)
        state.record_token(2.5)
        rec = state.to_record()
        assert rec.ttft == pytest.approx(0.5)
        assert rec.tpot == pytest.approx((2.5 - 1.5) / 2)
        assert rec.end_to_end_latency == pytest.approx(1.5)

    def test_single_token_request_tpot_zero(self):
        state = make_state(output_len=1)
        state.record_token(1.4)
        rec = state.to_record()
        assert rec.tpot == 0.0
        assert rec.ttft == pytest.approx(0.4)

    def test_meets_slo(self):
        state = make_state(output_len=2)
        state.record_token(1.2)
        state.record_token(1.3)
        rec = state.to_record()
        assert rec.meets(ttft_slo=0.3, tpot_slo=0.2)
        assert not rec.meets(ttft_slo=0.1, tpot_slo=0.2)
        assert not rec.meets(ttft_slo=0.3, tpot_slo=0.05)


class TestRequestValidation:
    def test_invalid_request_fields(self):
        with pytest.raises(ValueError):
            Request(request_id=1, arrival_time=-1.0, input_len=10, output_len=1)
        with pytest.raises(ValueError):
            Request(request_id=1, arrival_time=0.0, input_len=0, output_len=1)
        with pytest.raises(ValueError):
            Request(request_id=1, arrival_time=0.0, input_len=10, output_len=0)

    def test_total_tokens(self):
        r = Request(request_id=1, arrival_time=0.0, input_len=10, output_len=4)
        assert r.total_tokens == 14
