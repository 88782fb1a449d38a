"""Determinism: outputs depend on the seed and on nothing else.

Golden traces, byte-identical metric exports and trial-cache
fingerprints all assume a seeded run is a pure function of its inputs.
These tests run the same-seed scenarios again with everything a run must
*not* depend on changed, and require identical outputs:

* wall clocks (``time.*``, ``datetime.now``/``utcnow``/``today``) return
  shifted values that jump on every call, forward in one run and
  backward in another, and the global ``random`` and ``np.random``
  state is reseeded;
* the interpreter's string-hash seed (``PYTHONHASHSEED``) differs, which
  reorders iteration over sets of strings;
* the order of the records, spans and critical paths handed to the
  reporting functions is shuffled.

Only :class:`~repro.core.PlacementSearchStats`' wall-time field may
differ: it measures the search, not the simulation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import datetime
import functools
import itertools
import os
import pathlib
import random
import subprocess
import sys
import time

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import quickserve
from repro.analysis import (
    critical_paths,
    latency_breakdown,
    latency_summary,
    registry_snapshot,
    slo_attainment,
    to_prometheus_text,
    tpot_percentile,
    ttft_percentile,
)
from repro.core import PlacementSearchStats, place_high_affinity, place_low_affinity
from repro.core.goodput import _TrialCounter
from repro.hardware import Cluster, Node
from repro.serving import ColocatedSystem, DisaggregatedSystem, simulate_trace
from repro.simulator import InstanceSpec, Simulation, Tracer, to_jsonl
from repro.workload import SLO, fixed_length_dataset, generate_trace, get_dataset

from tests.test_golden_trace import GOLDEN_FILE, MODEL, build_golden_spans
from tests.test_metrics import _instrumented_disagg_run

ROOT = pathlib.Path(__file__).resolve().parent.parent

_CLOCKS = (
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
)

#: How far each perturbed clock read jumps past the previous one.
_JUMP_S = 86_400.0

#: Directions of the clock shift. A forward-shifted stamp is never older
#: than a virtual-time window's start, so only a backward shift shows a
#: wall-clock stamp compared with virtual time.
SHIFTS = (1, -1)


@contextlib.contextmanager
def perturbed(direction=1):
    """Shift and jump every wall clock; reseed the global RNGs.

    ``direction`` 1 moves each read forward, -1 backward. Clocks are
    patched on their own modules and on every name a loaded ``repro``
    module bound from them (``from time import perf_counter``), so a
    read through any call chain sees the perturbed value.
    """
    calls = itertools.count(1)
    real_datetime, real_date = datetime.datetime, datetime.date

    def jump():
        return datetime.timedelta(seconds=direction * _JUMP_S * next(calls))

    class ShiftedDatetime(real_datetime):
        @classmethod
        def now(cls, tz=None):
            return real_datetime.now(tz) + jump()

        @classmethod
        def utcnow(cls):
            return real_datetime.utcnow() + jump()

        @classmethod
        def today(cls):
            return real_datetime.today() + jump()

    class ShiftedDate(real_date):
        @classmethod
        def today(cls):
            return real_date.today() + jump()

    def shifted(real, ns):
        def clock():
            offset = direction * _JUMP_S * next(calls)
            return real() + (int(offset * 1e9) if ns else offset)
        return clock

    # Keyed by id: module namespaces also hold unhashable values.
    swaps = {
        id(getattr(time, name)): shifted(getattr(time, name), name.endswith("_ns"))
        for name in _CLOCKS
    }
    swaps[id(real_datetime)] = ShiftedDatetime
    swaps[id(real_date)] = ShiftedDate
    targets = [time, datetime] + [
        module for name, module in sorted(sys.modules.items())
        if module is not None and name.split(".")[0] == "repro"
    ]
    undo = []
    for module in targets:
        for name, value in list(vars(module).items()):
            if id(value) in swaps:
                undo.append((module, name, value))
                setattr(module, name, swaps[id(value)])
    random_state, np_state = random.getstate(), np.random.get_state()
    random.seed(20_260_101)
    np.random.seed(20_260_101)
    try:
        yield
    finally:
        for module, name, value in reversed(undo):
            setattr(module, name, value)
        random.setstate(random_state)
        np.random.set_state(np_state)


def test_perturbed_clocks_jump():
    for direction in SHIFTS:
        before = time.perf_counter()
        with perturbed(direction):
            first, second = time.perf_counter(), time.perf_counter()
            stamp = datetime.datetime.now()
            draw = random.random(), float(np.random.random())
        # Each read lands about one more jump away, in ``direction``.
        assert abs(first - before - direction * _JUMP_S) < 1.0
        assert abs(second - first - direction * _JUMP_S) < 1.0
        ahead = stamp - datetime.datetime.now()
        assert direction * ahead > datetime.timedelta(days=1)
        with perturbed(direction):
            assert (random.random(), float(np.random.random())) == draw
        assert abs(time.perf_counter() - before) < _JUMP_S


# ----------------------------------------------------------------------
# Wall clocks and global RNGs
# ----------------------------------------------------------------------

class TestWallClockAndGlobalRng:
    """Each run is repeated under a forward and a backward clock shift."""

    def test_golden_trace(self):
        for direction in SHIFTS:
            with perturbed(direction):
                spans = build_golden_spans()
            assert to_jsonl(spans).encode("utf-8") == GOLDEN_FILE.read_bytes()

    def test_metrics_export(self, tiny_spec):
        def export():
            _sys, registry, _mon, result, _slo, _trace = _instrumented_disagg_run(
                tiny_spec, seed=7
            )
            return (to_prometheus_text(registry), registry_snapshot(registry),
                    result.records)

        expected = export()
        for direction in SHIFTS:
            with perturbed(direction):
                assert export() == expected, direction

    def test_colocated_run(self, tiny_spec):
        # Bare, so the fast kernel runs (an observer forces the per-step
        # path, which the golden and metrics runs above take).
        def run():
            system = ColocatedSystem(Simulation(), tiny_spec, num_replicas=2)
            trace = generate_trace(get_dataset("sharegpt"), rate=4.0,
                                   num_requests=40, rng=np.random.default_rng(3))
            return simulate_trace(system, trace).records

        expected = run()
        for direction in SHIFTS:
            with perturbed(direction):
                assert run() == expected, direction

    def test_serial_placement_search(self, opt13b):
        cluster = Cluster(nodes=[Node(index=0, num_gpus=2)])
        dataset = fixed_length_dataset(256, 16)
        slo = SLO(ttft=0.1, tpot=0.05)

        def search():
            out = []
            for place in (place_high_affinity, place_low_affinity):
                stats = PlacementSearchStats()
                placement = place(opt13b, cluster, dataset, slo,
                                  num_requests=40, stats=stats)
                out.append((placement, dataclasses.replace(stats, wall_time_s=0.0)))
            return out

        expected = search()
        for direction in SHIFTS:
            with perturbed(direction):
                assert search() == expected, direction


# ----------------------------------------------------------------------
# String-hash seed
# ----------------------------------------------------------------------

_HASH_SEED_SCRIPT = """
import pathlib, sys
from repro.analysis import write_metrics_json, write_prometheus_text
from repro.simulator import InstanceSpec, write_jsonl
from tests.test_golden_trace import MODEL, build_golden_spans
from tests.test_metrics import _instrumented_disagg_run
out = pathlib.Path(sys.argv[1])
write_jsonl(str(out / "golden.jsonl"), build_golden_spans())
registry = _instrumented_disagg_run(InstanceSpec(model=MODEL), seed=7)[1]
write_prometheus_text(str(out / "metrics.prom"), registry)
write_metrics_json(str(out / "metrics.json"), registry)
"""


def run_with_hash_seed(seed, script, *args):
    """Run ``script`` in a fresh interpreter under ``PYTHONHASHSEED=seed``
    and return its standard output."""
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          cwd=ROOT, check=True, stdout=subprocess.PIPE,
                          text=True).stdout


def test_exports_independent_of_hash_seed(tmp_path):
    """The golden trace and the metrics exports, written to files under
    two string-hash seeds, are byte-identical."""
    outputs = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        out.mkdir()
        run_with_hash_seed(seed, _HASH_SEED_SCRIPT, str(out))
        outputs.append([(out / name).read_bytes()
                        for name in ("golden.jsonl", "metrics.prom", "metrics.json")])
    assert all(outputs[0]) and outputs[0] == outputs[1]


# ----------------------------------------------------------------------
# Record and span order
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _records():
    return tuple(quickserve("opt-13b", rate=4.0, num_requests=400, seed=0).records)


@functools.lru_cache(maxsize=None)
def _spans():
    spec = InstanceSpec(model=MODEL)
    tracer = Tracer()
    system = DisaggregatedSystem(Simulation(), spec, spec, num_prefill=2,
                                 num_decode=2, tracer=tracer)
    trace = generate_trace(get_dataset("humaneval"), rate=8.0, num_requests=120,
                           rng=np.random.default_rng(1))
    simulate_trace(system, trace)
    return tuple(tracer.spans)


@functools.lru_cache(maxsize=None)
def _paths():
    return tuple(critical_paths(_spans()))


def _reports(records, spans, paths):
    slo = SLO(ttft=2.0, tpot=0.06)
    counter = _TrialCounter(Simulation(), slo, allowed_violations=len(records))
    for record in records:
        counter.observe_completion(record.ttft, record.tpot)
    return repr((
        latency_summary(records),
        ttft_percentile(records, 90.0), tpot_percentile(records, 99.0),
        critical_paths(spans),
        latency_breakdown(paths),
        slo_attainment(records, slo, num_expected=len(records) + 3),
        counter.met, counter.violations,
    ))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_reports_independent_of_input_order(seed):
    records, spans, paths = list(_records()), list(_spans()), list(_paths())
    expected = _reports(records, spans, paths)
    shuffle = random.Random(seed).shuffle
    shuffle(records)
    shuffle(spans)
    shuffle(paths)
    assert _reports(records, spans, paths) == expected
