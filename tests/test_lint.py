"""Seeded-bug tests for the runtime twins of the cut lint rules.

Each class is named after a rule (DET001-DET004, SIM002, PAR001) whose
patterns are now caught by a check that runs the code, its runtime twin
(DESIGN §4f, §4i). A positive test seeds one pattern the rule flagged
into code a run executes and requires the twin to catch it; a negative
test runs the safe variant and requires the twin to stay quiet. A twin
that silently stops perturbing what it should fails here.
"""

from __future__ import annotations

import datetime
import json
import math
import pickle
import random
import time
import types
from functools import lru_cache, partial

import numpy as np
import pytest

import repro.analysis.critpath as critpath_module
import repro.scheduling.dispatch as dispatch_module
from repro.analysis import slo_attainment
from repro.core.placement_low import IntraNodeConfig, _unit_factory
from repro.core.search import TrialCache, make_task
from repro.hardware import Cluster, Node
from repro.models import get_model
from repro.scheduling import SchedulingConfig
from repro.serving import DisaggregatedSystem, simulate_trace
from repro.simulator import Simulation
from repro.workload import SLO, fixed_length_dataset, generate_trace, get_dataset

from tests.test_determinism import (
    SHIFTS,
    _paths,
    _records,
    _reports,
    _spans,
    perturbed,
    run_with_hash_seed,
)
from tests.test_metrics import sampled_mid_run

#: A generator shared by every run in the process, seeded once at import.
_MODULE_RNG = np.random.default_rng(0)


def _randomly_routed(spec, make_rng):
    """A function that runs a same-seed disaggregated trace, routing every
    request with the generator ``make_rng(sim)`` returns, and returns the
    run's records."""
    def run():
        sim = Simulation()
        system = DisaggregatedSystem(
            sim, spec, spec, num_prefill=2, num_decode=2,
            scheduling=SchedulingConfig(dispatch_policy="random"), rng=make_rng(sim),
        )
        trace = generate_trace(get_dataset("sharegpt"), rate=4.0,
                               num_requests=40, rng=np.random.default_rng(3))
        return simulate_trace(system, trace).records
    return run


def _caught_by_wall_clock_twin(run):
    """``TestWallClockAndGlobalRng``'s check: does a re-run with shifted,
    jumping clocks (either way) and reseeded global generators change the
    output?"""
    expected = run()
    for direction in SHIFTS:
        with perturbed(direction):
            if run() != expected:
                return True
    return False


class _GlobalDraws:
    """Stands in for a ``np.random.Generator``, drawing from ``draw``."""

    def __init__(self, draw):
        self._draw = draw

    def integers(self, low, high):
        return self._draw(low, high)


# ----------------------------------------------------------------------
# DET001 — wall clocks (twin: TestWallClockAndGlobalRng)
# ----------------------------------------------------------------------

class TestDET001:
    def test_positive_call(self, tiny_spec):
        run = _randomly_routed(
            tiny_spec, lambda sim: np.random.default_rng(int(time.time()))
        )
        assert _caught_by_wall_clock_twin(run)

    def test_positive_datetime_and_monotonic(self, tiny_spec):
        for clock in (lambda: datetime.datetime.now().timestamp(),
                      lambda: time.monotonic()):
            run = _randomly_routed(
                tiny_spec, lambda sim: np.random.default_rng(int(clock()))
            )
            assert _caught_by_wall_clock_twin(run)

    def test_positive_bare_reference(self, tiny_spec, monkeypatch):
        # As if the module had run ``from time import perf_counter``: the
        # twin must perturb the clock under the name the module bound.
        monkeypatch.setattr(dispatch_module, "perf_counter", time.perf_counter,
                            raising=False)
        run = _randomly_routed(
            tiny_spec,
            lambda sim: np.random.default_rng(int(dispatch_module.perf_counter())),
        )
        assert _caught_by_wall_clock_twin(run)

    def test_negative_virtual_time(self, tiny_spec):
        run = _randomly_routed(
            tiny_spec, lambda sim: np.random.default_rng(int(sim.now))
        )
        assert not _caught_by_wall_clock_twin(run)


# ----------------------------------------------------------------------
# DET002 — seeded randomness (twin: TestWallClockAndGlobalRng)
# ----------------------------------------------------------------------

class TestDET002:
    def test_positive_stdlib_import(self, tiny_spec):
        run = _randomly_routed(tiny_spec, lambda sim: _GlobalDraws(random.randrange))
        assert _caught_by_wall_clock_twin(run)

    def test_positive_global_numpy_rng(self, tiny_spec):
        run = _randomly_routed(tiny_spec, lambda sim: _GlobalDraws(np.random.randint))
        assert _caught_by_wall_clock_twin(run)

    def test_positive_unseeded_default_rng(self, tiny_spec):
        run = _randomly_routed(tiny_spec, lambda sim: np.random.default_rng())
        assert _caught_by_wall_clock_twin(run)

    def test_positive_module_level_rng(self, tiny_spec):
        # Seeded, but shared: the re-run continues the first run's stream.
        run = _randomly_routed(tiny_spec, lambda sim: _MODULE_RNG)
        assert _caught_by_wall_clock_twin(run)

    def test_negative_seeded_in_function(self, tiny_spec):
        run = _randomly_routed(tiny_spec, lambda sim: np.random.default_rng(7))
        assert not _caught_by_wall_clock_twin(run)


# ----------------------------------------------------------------------
# DET003 — iteration order into order-sensitive sinks
# (twin: test_exports_independent_of_hash_seed)
# ----------------------------------------------------------------------

_ITERATION_SCRIPT = """
import hashlib, heapq, json
from repro.simulator import Simulation

NAMES = [f"{kind}-{i}" for kind in ("prefill", "decode") for i in range(8)]

def scheduled(callbacks):
    sim = Simulation()
    for cb in callbacks:
        sim.schedule(0.0, cb)
    sim.run()
    return fired

def popped(names):
    heap = []
    for seq, name in enumerate(names):
        heapq.heappush(heap, (0.0, seq, name))
    return [heapq.heappop(heap)[2] for _ in range(len(heap))]

fired = []
by_name = {name: (lambda name=name: fired.append(name)) for name in set(NAMES)}
digest = hashlib.sha256()
digest.update(b"".join(name.encode() for name in set(NAMES)))
print(json.dumps({
    "set_into_heappush": popped(set(NAMES)),
    "dict_view_into_schedule": scheduled(by_name.values()),
    "comprehension_into_hash_update": digest.hexdigest(),
    "sorted_iteration": popped(sorted(set(NAMES))),
    "set_without_sink": sum(len(name) for name in set(NAMES)),
}))
"""


@lru_cache(maxsize=None)
def _under_hash_seeds():
    return [json.loads(run_with_hash_seed(seed, _ITERATION_SCRIPT))
            for seed in ("1", "2")]


def _caught_by_hash_seed_twin(case):
    first, second = _under_hash_seeds()
    return first[case] != second[case]


class TestDET003:
    def test_positive_set_into_heappush(self):
        assert _caught_by_hash_seed_twin("set_into_heappush")

    def test_positive_dict_view_into_schedule(self):
        # A dict view is ordered by insertion, here from a set.
        assert _caught_by_hash_seed_twin("dict_view_into_schedule")

    def test_positive_comprehension_into_hash_update(self):
        assert _caught_by_hash_seed_twin("comprehension_into_hash_update")

    def test_negative_sorted_iteration(self):
        assert not _caught_by_hash_seed_twin("sorted_iteration")

    def test_negative_set_without_sink(self):
        assert not _caught_by_hash_seed_twin("set_without_sink")


# ----------------------------------------------------------------------
# DET004 — float sums over input order
# (twin: test_reports_independent_of_input_order)
# ----------------------------------------------------------------------

def _caught_by_shuffle_twin(report):
    """Does ``report(records, spans, paths)`` change under any of 20
    shuffles?"""
    records, spans, paths = list(_records()), list(_spans()), list(_paths())
    expected = report(records, spans, paths)
    for seed in range(20):
        shuffle = random.Random(seed).shuffle
        shuffle(records)
        shuffle(spans)
        shuffle(paths)
        if report(records, spans, paths) != expected:
            return True
    return False


class TestDET004:
    def test_positive_float_genexp(self, monkeypatch):
        # latency_breakdown with a bare sum() over its path generators.
        def fsum(values):
            return sum(values) if isinstance(values, types.GeneratorType) else math.fsum(values)

        monkeypatch.setattr(critpath_module, "math",
                            types.SimpleNamespace(fsum=fsum))
        assert _caught_by_shuffle_twin(_reports)

    def test_negative_fsum(self):
        assert not _caught_by_shuffle_twin(_reports)

    def test_negative_integer_counting(self):
        # slo_attainment counts with sum(1 for ...): exact in any order.
        slo = SLO(ttft=2.0, tpot=0.06)
        assert not _caught_by_shuffle_twin(
            lambda records, spans, paths: repr(slo_attainment(records, slo))
        )


# ----------------------------------------------------------------------
# SIM002 — re-entrant mutation (twins: Simulation.run's re-entrancy
# guard and test_sampling_mid_run_leaves_records_unchanged)
# ----------------------------------------------------------------------

def _caught_by_sampling_twin(spec, extra):
    """Does reading every metric callback mid-run change the records?"""
    round_robin = SchedulingConfig(dispatch_policy="round_robin")
    bare, _ = sampled_mid_run(spec, observed=False, scheduling=round_robin)
    records, _ = sampled_mid_run(spec, observed=True,
                                 scheduling=round_robin, extra=extra)
    return records != bare


def _peek_next(system, pool):
    """The next target of a pool's dispatcher, read by asking it to choose."""
    instances = getattr(system, f"{pool}_instances")
    dispatcher = getattr(system, f"_{pool}_dispatch")
    return instances.index(dispatcher.choose(instances))


class TestSIM002:
    def test_positive_mutating_metric_callback(self, tiny_spec):
        def extra(sim, system, registry):
            registry.gauge("next_prefill_target", "Next prefill instance",
                           fn=lambda: _peek_next(system, "prefill"))

        assert _caught_by_sampling_twin(tiny_spec, extra)

    def test_positive_scheduling_metric_callback(self, tiny_spec):
        def extra(sim, system, registry):
            def peek_later():
                sim.schedule(0.0, lambda: _peek_next(system, "decode"))
                return 0.0

            registry.gauge("decode_peek", "Next decode instance, read later",
                           fn=peek_later)

        assert _caught_by_sampling_twin(tiny_spec, extra)

    def test_positive_reentrant_run(self, tiny_spec, monkeypatch):
        on_prefill_done = DisaggregatedSystem._on_prefill_done

        def reentrant(self, state):
            self.sim.run(until=self.sim.now)
            on_prefill_done(self, state)

        monkeypatch.setattr(DisaggregatedSystem, "_on_prefill_done", reentrant)
        run = _randomly_routed(tiny_spec, lambda sim: np.random.default_rng(7))
        with pytest.raises(RuntimeError, match="not re-entrant"):
            run()

    def test_negative_pure_callbacks(self, tiny_spec):
        def extra(sim, system, registry):
            registry.gauge("unfinished", "Requests in flight",
                           fn=lambda: system.unfinished)
            registry.gauge("records", "Records kept",
                           fn=lambda: len(system.records))

        assert not _caught_by_sampling_twin(tiny_spec, extra)


# ----------------------------------------------------------------------
# PAR001 — picklable search tasks (twin: search.fingerprint)
# ----------------------------------------------------------------------

def _joint_task(system_factory):
    return make_task(
        system_factory, fixed_length_dataset(256, 16), SLO(ttft=0.1, tpot=0.05),
        attainment_target=0.9, num_requests=40, seed=0, min_duration=1.0,
        cache=TrialCache(),
    )


_MODEL = get_model("opt-13b")
_CLUSTER = Cluster(nodes=[Node(index=0, num_gpus=2)])
_CAND = IntraNodeConfig(inter_op=1, num_prefill=1, prefill_tp=1,
                        num_decode=1, decode_tp=1)


class TestPAR001:
    def test_positive_lambda_task_arg(self):
        with pytest.raises(TypeError, match="cannot fingerprint"):
            _joint_task(lambda sim: _unit_factory(_MODEL, _CLUSTER, _CAND, sim))

    def test_positive_nested_def_into_evaluator(self):
        def factory(sim):
            return _unit_factory(_MODEL, _CLUSTER, _CAND, sim)

        with pytest.raises(TypeError, match="cannot fingerprint"):
            _joint_task(factory)

    def test_negative_module_level_callable(self):
        task = _joint_task(partial(_unit_factory, _MODEL, _CLUSTER, _CAND))
        assert pickle.loads(pickle.dumps(task)).context_fp == task.context_fp
