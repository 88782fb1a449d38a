"""Tests for metric time series: ``MetricsRegistry.sample`` on its own and
on a live instance."""

import pytest

from repro.simulator import (
    DecodeInstance,
    MetricsRegistry,
    RequestState,
    Simulation,
)
from repro.workload import Request


def _clock_registry(sim):
    """A registry with one gauge that counts ticks at t = 0.5, 1.5, ..."""
    registry = MetricsRegistry()
    clock = registry.gauge("clock")

    def tick():
        clock.inc()
        sim.schedule(1.0, tick)

    sim.schedule(0.5, tick)
    return registry


class TestGaugeSampling:
    def test_samples_on_cadence(self):
        sim = Simulation()
        samples = _clock_registry(sim).sample(sim, 1.0, until=5.0)
        sim.run(until=5.0)
        assert samples.times == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert samples.get("clock") == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_cadence_endpoints(self):
        """The first reading is taken at the call, and the last one is
        the last on the cadence at or before ``until``."""
        for until, times in (
            (4.0, [0.0, 2.0, 4.0]),   # on the cadence: included
            (5.0, [0.0, 2.0, 4.0]),   # between readings
            (1.0, [0.0]),             # shorter than one interval
        ):
            sim = Simulation()
            samples = MetricsRegistry().sample(sim, 2.0, until=until)
            sim.run()
            assert samples.times == times
        sim = Simulation()
        sim.schedule_at(1.5, lambda: None)
        sim.run()
        samples = MetricsRegistry().sample(sim, 2.0, until=6.0)
        sim.run()
        assert samples.times == [1.5, 3.5, 5.5]

    def test_lifecycle_guards(self):
        """Only counters and gauges registered before sampling starts
        are read; looking up anything else raises ``KeyError``."""
        sim = Simulation()
        registry = MetricsRegistry()
        registry.counter("served", labels={"pool": "a"}).inc(3)
        registry.histogram("latency").observe(0.1)
        samples = registry.sample(sim, 1.0, until=2.0)
        late = registry.gauge("late")
        late.set(7.0)
        sim.run()
        assert samples.get("served", {"pool": "a"}) == [3.0, 3.0, 3.0]
        assert list(samples.series) == ["served"]
        for name, labels in (
            ("served", {"pool": "b"}), ("latency", None), ("late", None),
            ("missing", None),
        ):
            with pytest.raises(KeyError):
                samples.get(name, labels)

    def test_invalid_interval(self):
        for interval in (0.0, -1.0):
            with pytest.raises(ValueError):
                MetricsRegistry().sample(Simulation(), interval, until=1.0)


class TestMaxEventsInteraction:
    """Readings are simulation events and consume max_events budgets.

    Every reading after the first (which runs inline in ``sample()``) is
    one scheduled event, so ``run(max_events=N)`` can be exhausted by
    sampling alone.
    """

    def test_sampling_consumes_event_budget(self):
        sim = Simulation()
        samples = MetricsRegistry().sample(sim, 1.0, until=100.0)
        sim.run(max_events=5)
        # Only the budgeted readings ran: 1 inline + 5 scheduled.
        assert len(samples.times) == 6
        assert sim.now == 5.0

    def test_until_bound_is_not_budget_limited(self):
        sim = Simulation()
        samples = MetricsRegistry().sample(sim, 1.0, until=10.0)
        sim.run(until=10.0)
        assert len(samples.times) == 11  # t = 0..10 inclusive

    def test_budget_shared_with_workload_events(self):
        sim = Simulation()
        registry = MetricsRegistry()
        fired = registry.counter("fired")
        for t in (0.5, 1.5, 2.5):
            sim.schedule_at(t, fired.inc)
        samples = registry.sample(sim, 1.0, until=100.0)
        # 4 events total: readings at t=1,2 interleave with work at 0.5, 1.5.
        sim.run(max_events=4)
        assert fired.value == 2.0
        assert samples.times == [0.0, 1.0, 2.0]
        assert samples.get("fired") == [0.0, 1.0, 2.0]


class TestInstanceTelemetry:
    def test_decode_batch_size_dynamics(self, tiny_spec):
        sim = Simulation()
        inst = DecodeInstance(sim, tiny_spec, on_request_done=lambda s: None)
        registry = MetricsRegistry()
        inst.instrument(registry)
        samples = registry.sample(sim, 0.25, until=3.0)
        # A burst of work arrives at t=1.
        for i in range(8):
            state = RequestState(
                request=Request(
                    request_id=i, arrival_time=1.0, input_len=64, output_len=500
                )
            )
            state.record_token(1.0)
            sim.schedule_at(1.0, lambda s=state: inst.submit(s))
        sim.run(until=3.0)
        labels = {"phase": "decode", "instance": inst.name}
        batch = samples.get("repro_batch_size", labels)
        kv_free = samples.get("repro_kv_blocks_free", labels)
        before, after = samples.times.index(0.5), samples.times.index(1.5)
        assert batch[before] == 0.0
        assert batch[after] == 8.0
        assert kv_free[after] < kv_free[before]  # KV consumed by burst
