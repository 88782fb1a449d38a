"""reprolint tests: per-rule fixtures (positive / negative / suppression)
plus engine mechanics (selection, JSON output, module scoping) and the
self-hosting guarantee that the shipped tree lints clean.
"""

from __future__ import annotations

import ast
import json
import pathlib
import textwrap

import pytest

from repro.lint import (
    LintEngine,
    findings_to_json,
    format_findings,
    lint_paths,
    lint_source,
    lint_sources,
    rule_names,
)
from repro.lint.engine import module_name_for
from repro.lint.rules import _DECODE_LOOP_ROOTS, _SCHED_LOOP_ROOTS

REPO_ROOT = pathlib.Path(__file__).parent.parent

SIM_MODULE = "repro.simulator.fixture"
CORE_MODULE = "repro.core.fixture"


def run(source: str, module: str = SIM_MODULE, select=None):
    return lint_source(textwrap.dedent(source), path="fixture.py",
                       module=module, select=select)


def rules_of(findings):
    return sorted({f.rule for f in findings})


# ----------------------------------------------------------------------
# DET001 — wall-clock
# ----------------------------------------------------------------------

class TestDET001:
    def test_positive_call(self):
        findings = run("""
            import time
            def f():
                return time.time()
        """)
        assert rules_of(findings) == ["DET001"]

    def test_positive_datetime_and_monotonic(self):
        findings = run("""
            import time, datetime
            def f():
                a = time.monotonic()
                b = datetime.datetime.now()
                return a, b
        """)
        assert len([f for f in findings if f.rule == "DET001"]) == 2

    def test_positive_bare_reference(self):
        # Passing the clock itself as a callback is just as dangerous.
        findings = run("""
            import time
            def f(items):
                return sorted(items, key=time.perf_counter)
        """)
        assert rules_of(findings) == ["DET001"]

    def test_negative_out_of_scope_module(self):
        findings = run("""
            import time
            def f():
                return time.time()
        """, module="benchmarks.bench_fixture")
        assert findings == []

    def test_negative_virtual_time(self):
        findings = run("""
            def f(sim):
                return sim.now
        """)
        assert findings == []

    def test_suppression(self):
        findings = run("""
            import time
            def f():
                return time.perf_counter()  # reprolint: disable=DET001 -- stats
        """)
        assert findings == []


# ----------------------------------------------------------------------
# DET002 — seeded randomness
# ----------------------------------------------------------------------

class TestDET002:
    def test_positive_stdlib_import(self):
        findings = run("import random\n", module="examples.fixture")
        assert rules_of(findings) == ["DET002"]

    def test_positive_global_numpy_rng(self):
        findings = run("""
            import numpy as np
            def f():
                np.random.seed(0)
                return np.random.rand(3)
        """, module="examples.fixture")
        assert len([f for f in findings if f.rule == "DET002"]) == 2

    def test_positive_unseeded_default_rng(self):
        findings = run("""
            import numpy as np
            def f():
                return np.random.default_rng()
        """)
        assert rules_of(findings) == ["DET002"]
        assert "seed" in findings[0].message

    def test_positive_module_level_rng(self):
        findings = run("""
            import numpy as np
            RNG = np.random.default_rng(0)
        """)
        assert rules_of(findings) == ["DET002"]
        assert "module-level" in findings[0].message

    def test_negative_seeded_in_function(self):
        findings = run("""
            import numpy as np
            def f(seed):
                rng = np.random.default_rng(seed)
                return rng.random(4)
        """)
        assert findings == []

    def test_suppression(self):
        findings = run("""
            import numpy as np
            def f():
                return np.random.default_rng()  # reprolint: disable=DET002 -- demo
        """)
        assert findings == []


# ----------------------------------------------------------------------
# DET003 — ordering-sensitive sinks
# ----------------------------------------------------------------------

class TestDET003:
    def test_positive_set_into_heappush(self):
        findings = run("""
            import heapq
            def f(items, heap):
                for x in set(items):
                    heapq.heappush(heap, x)
        """, module="repro.queueing.fixture")
        assert rules_of(findings) == ["DET003"]

    def test_positive_dict_view_into_schedule(self):
        findings = run("""
            def f(sim, callbacks):
                for cb in callbacks.values():
                    sim.schedule(0.0, cb)
        """)
        assert "DET003" in rules_of(findings)

    def test_positive_comprehension_into_hash_update(self):
        findings = run("""
            def f(h):
                h.update(str(x).encode() for x in {1, 2, 3})
        """, module="repro.core.fixture")
        assert "DET003" in rules_of(findings)

    def test_negative_sorted_iteration(self):
        findings = run("""
            import heapq
            def f(items, heap):
                for x in sorted(set(items)):
                    heapq.heappush(heap, x)
        """, module="repro.queueing.fixture")
        assert findings == []

    def test_negative_set_without_sink(self):
        findings = run("""
            def f(items):
                total = 0
                for x in set(items):
                    total += x
                return total
        """)
        assert findings == []

    def test_suppression(self):
        findings = run("""
            import heapq
            def f(items, heap):
                # reprolint: disable=DET003 -- items proven pre-sorted upstream
                for x in set(items):
                    heapq.heappush(heap, x)
        """, module="repro.queueing.fixture")
        assert findings == []


# ----------------------------------------------------------------------
# DET004 — fsum in hot paths
# ----------------------------------------------------------------------

class TestDET004:
    def test_positive_float_genexp(self):
        findings = run("""
            def f(records):
                return sum(r.exec_time for r in records)
        """, module="repro.latency.fixture")
        assert rules_of(findings) == ["DET004"]

    def test_positive_dict_view(self):
        findings = run("""
            def f(sums):
                return sum(sums.values())
        """, module="repro.analysis.breakdown")
        assert rules_of(findings) == ["DET004"]

    def test_negative_integer_counting(self):
        findings = run("""
            def f(records, input_lens):
                n = sum(1 for r in records)
                tok = sum(input_lens)
                return n + tok
        """, module="repro.latency.fixture")
        assert findings == []

    def test_negative_fsum(self):
        findings = run("""
            import math
            def f(records):
                return math.fsum(r.exec_time for r in records)
        """, module="repro.latency.fixture")
        assert findings == []

    def test_negative_out_of_scope_module(self):
        findings = run("""
            def f(records):
                return sum(r.exec_time for r in records)
        """, module="repro.serving.fixture")
        assert findings == []

    def test_suppression(self):
        findings = run("""
            def f(records):
                return sum(r.exec_time for r in records)  # reprolint: disable=DET004 -- bounded n
        """, module="repro.latency.fixture")
        assert findings == []


# ----------------------------------------------------------------------
# SIM002 — re-entrant mutation
# ----------------------------------------------------------------------

class TestSIM002:
    def test_positive_mutating_metric_callback(self):
        findings = run("""
            def f(registry, q):
                registry.counter("x", "desc", fn=lambda: q.pop())
        """)
        assert rules_of(findings) == ["SIM002"]

    def test_positive_mutating_recorder_callback(self):
        findings = run("""
            def f(recorder, sim, cb):
                recorder.register("gauge", lambda: sim.schedule(0.0, cb))
        """)
        assert "SIM002" in rules_of(findings)

    def test_positive_reentrant_run(self):
        findings = run("""
            def f(sim):
                def cb():
                    sim.run()
                sim.schedule(1.0, cb)
        """)
        assert rules_of(findings) == ["SIM002"]

    def test_negative_pure_callbacks(self):
        findings = run("""
            def f(registry, recorder, system, w):
                registry.counter("x", "desc", fn=lambda: len(w))
                registry.gauge("y", "desc", fn=lambda: system.unfinished)
                recorder.register("z", lambda: sum(w.values()) / max(1, len(w)))
        """)
        assert findings == []

    def test_suppression(self):
        findings = run("""
            def f(registry, q):
                # reprolint: disable=SIM002 -- drain is idempotent here
                registry.counter("x", "desc", fn=lambda: q.pop())
        """)
        assert findings == []


# ----------------------------------------------------------------------
# PAR001 — picklable tasks
# ----------------------------------------------------------------------

class TestPAR001:
    def test_positive_lambda_task_arg(self):
        findings = run("""
            def f(spec):
                return make_phase_task(spec, fn=lambda rate: rate * 2)
        """, module=CORE_MODULE)
        assert rules_of(findings) == ["PAR001"]

    def test_positive_nested_def_into_evaluator(self):
        findings = run("""
            def f(evaluator):
                def task():
                    return 1
                return evaluator.run([task])
        """, module=CORE_MODULE)
        assert rules_of(findings) == ["PAR001"]

    def test_negative_module_level_callable(self):
        findings = run("""
            def _task():
                return 1

            def f(evaluator):
                return evaluator.run([_task])
        """, module=CORE_MODULE)
        assert findings == []

    def test_negative_out_of_scope_module(self):
        findings = run("""
            def f(evaluator):
                return evaluator.run([lambda: 1])
        """, module="repro.serving.fixture")
        assert findings == []

    def test_suppression(self):
        findings = run("""
            def f(evaluator):
                # reprolint: disable=PAR001 -- serial-only evaluator in tests
                return evaluator.run([lambda: 1])
        """, module=CORE_MODULE)
        assert findings == []


# ----------------------------------------------------------------------
# OBS001 — allocation-light observability hot paths
# ----------------------------------------------------------------------

class TestOBS001:
    def test_positive_comprehension_in_record_method(self):
        findings = run("""
            class Profiler:
                def record_exec(self, batch):
                    self.events.append([r.id for r in batch])
        """)
        assert rules_of(findings) == ["OBS001"]

    def test_positive_genexp_in_observe(self):
        findings = run("""
            class Monitor:
                def observe(self, records):
                    self.total += sum(r.latency for r in records)
        """, select=["OBS001"])
        assert rules_of(findings) == ["OBS001"]

    def test_positive_dict_comprehension_in_span(self):
        findings = run("""
            class Tracer:
                def span(self, rid, kind, attrs):
                    self.spans.append({k: v for k, v in attrs})
        """, select=["OBS001"])
        assert rules_of(findings) == ["OBS001"]

    def test_positive_record_prefix_matches(self):
        findings = run("""
            class Engine:
                def record_transfer(self, blocks):
                    sizes = {b.size for b in blocks}
                    self.sizes.append(sizes)
        """, select=["OBS001"])
        assert rules_of(findings) == ["OBS001"]

    def test_positive_metric_callback_comprehension(self):
        findings = run("""
            def instrument(registry, queues):
                registry.gauge(
                    "depth", "total queue depth",
                    fn=lambda: sum(len(q) for q in queues.values()),
                )
        """, select=["OBS001"])
        assert rules_of(findings) == ["OBS001"]

    def test_negative_plain_loop_in_hot_path(self):
        findings = run("""
            class Profiler:
                def record_exec(self, instance, start, end, batch):
                    total = 0
                    for request in batch:
                        total += request.tokens
                    self.events.append((instance, start, end, total))
        """, select=["OBS001"])
        assert findings == []

    def test_negative_comprehension_in_cold_method(self):
        findings = run("""
            class Profiler:
                def summarize(self):
                    return [e for e in self.events]
        """, select=["OBS001"])
        assert findings == []

    def test_negative_free_function_not_flagged(self):
        findings = run("""
            def observe(values):
                return [v * 2 for v in values]
        """, select=["OBS001"])
        assert findings == []

    def test_negative_out_of_scope_module(self):
        findings = run("""
            class Profiler:
                def record_exec(self, batch):
                    return [r.id for r in batch]
        """, module="repro.analysis.fixture", select=["OBS001"])
        assert findings == []

    def test_nested_def_inside_hot_method_not_flagged(self):
        # A nested function is a deferred callback, not the per-event
        # path itself; it is judged on its own name.
        findings = run("""
            class Instance:
                def record_step(self, batch):
                    def finish():
                        return [r.id for r in batch]
                    self.on_done = finish
                    self.count += 1
        """, select=["OBS001"])
        assert findings == []

    def test_suppression(self):
        findings = run("""
            class Profiler:
                def record_exec(self, batch):
                    # reprolint: disable=OBS001 -- cold slow-path branch
                    self.events.append([r.id for r in batch])
        """, select=["OBS001"])
        assert findings == []


# ----------------------------------------------------------------------
# PERF001 — no sum() reachable from the decode step loop
# ----------------------------------------------------------------------

class TestPERF001:
    def test_positive_sum_in_root(self):
        findings = run("""
            class Instance:
                def _run_step(self):
                    contexts = [s.context_len for s in self._active]
                    return sum(contexts)
        """, select=["PERF001"])
        assert rules_of(findings) == ["PERF001"]

    def test_positive_sum_in_transitive_callee(self):
        findings = run("""
            class Instance:
                def _finish_step(self):
                    self._report()

                def _report(self):
                    self._tally()

                def _tally(self):
                    return sum(s.tokens for s in self._active)
        """, select=["PERF001"])
        assert rules_of(findings) == ["PERF001"]

    def test_positive_sum_in_nested_closure_of_root(self):
        findings = run("""
            class Instance:
                def _kv_safe_steps(self, limit):
                    def extra(growth):
                        return sum(t + growth for t in self._held)
                    return extra(limit)
        """, select=["PERF001"])
        assert rules_of(findings) == ["PERF001"]

    def test_negative_sum_in_unreachable_function(self):
        findings = run("""
            class Instance:
                def _run_step(self):
                    self._count += 1

                def summarize(self):
                    return sum(self._latencies)
        """, select=["PERF001"])
        assert findings == []

    def test_negative_explicit_loop_in_root(self):
        findings = run("""
            class Instance:
                def _materialize(self, upto):
                    total = 0
                    for state in self._batch:
                        total += state.tokens
                    return total
        """, select=["PERF001"])
        assert findings == []

    def test_negative_out_of_scope_module(self):
        findings = run("""
            def _run_step(batch):
                return sum(b.tokens for b in batch)
        """, module="repro.analysis.fixture", select=["PERF001"])
        assert findings == []

    def test_suppression(self):
        findings = run("""
            class Instance:
                def sync_to_now(self):
                    # reprolint: disable=PERF001 -- cold failure branch
                    return sum(self._pending)
        """, select=["PERF001"])
        assert findings == []

    def test_roots_name_functions_that_exist(self):
        """A renamed loop entry point would silently stop seeding the rule."""
        assert _DECODE_LOOP_ROOTS - _defined_functions("simulator") == set()
        assert _SCHED_LOOP_ROOTS - _defined_functions("scheduling") == set()


def _defined_functions(package: str) -> "set[str]":
    """Names of every def in the ``repro.<package>`` sources."""
    names: "set[str]" = set()
    for path in sorted((REPO_ROOT / "src" / "repro" / package).rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names.update(
            node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
    return names


# ----------------------------------------------------------------------
# Engine mechanics
# ----------------------------------------------------------------------

class TestEngine:
    def test_select_filters_rules(self):
        source = """
            import time, random
            def f():
                return time.time()
        """
        only_det002 = run(source, select=["DET002"])
        assert rules_of(only_det002) == ["DET002"]
        only_det001 = run(source, select=["DET001"])
        assert rules_of(only_det001) == ["DET001"]

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown rule"):
            LintEngine(select=["NOPE42"])

    def test_syntax_error_reported_not_raised(self):
        findings = lint_source("def f(:\n", path="bad.py")
        assert findings and findings[0].rule == "E999"

    def test_file_level_suppression(self):
        findings = run("""
            # reprolint: disable-file=DET001
            import time
            def f():
                return time.time()
        """)
        assert findings == []

    def test_findings_sorted_and_deterministic(self):
        source = """
            import time
            def f():
                return time.time(), time.monotonic()
        """
        first = run(source)
        second = run(source)
        assert first == second == sorted(first)

    def test_json_output_shape(self):
        findings = run("""
            import time
            def f():
                return time.time()
        """)
        payload = json.loads(findings_to_json(findings, files_checked=1))
        assert payload["tool"] == "reprolint"
        assert payload["files_checked"] == 1
        assert payload["counts"] == {"DET001": 1}
        entry = payload["findings"][0]
        assert set(entry) == {"rule", "message", "path", "line", "col"}

    def test_human_output(self):
        findings = run("""
            import time
            def f():
                return time.time()
        """)
        text = format_findings(findings)
        assert "DET001" in text and "fixture.py" in text
        assert format_findings([]) == "reprolint: clean"

    def test_module_name_mapping(self):
        assert module_name_for(
            pathlib.Path("src/repro/simulator/events.py")
        ) == "repro.simulator.events"
        assert module_name_for(
            pathlib.Path("src/repro/lint/__init__.py")
        ) == "repro.lint"
        assert module_name_for(
            pathlib.Path("tests/test_lint.py")
        ) == "tests.test_lint"

    def test_rule_registry_complete(self):
        assert rule_names() == [
            "DET001", "DET002", "DET003", "DET004",
            "OBS001", "PAR001", "PERF001", "SIM002",
        ]


# ----------------------------------------------------------------------
# Cross-module reachability: regression tests for the whole-program
# upgrade. Each case is invisible to the old intra-module graphs —
# the offending code lives in a *different* module than the hot entry
# point — and is caught only via the shared project call graph.
# ----------------------------------------------------------------------

def run_modules(select=None, **sources):
    dedented = {
        module.replace("__", "."): textwrap.dedent(text)
        for module, text in sources.items()
    }
    return lint_sources(dedented, select=select)


class TestCrossModuleReachability:
    def test_perf001_sum_in_other_module_called_from_run_step(self):
        findings = run_modules(
            select=["PERF001"],
            repro__simulator__inst="""
                from repro.latency_model.steps import step_time

                class Instance:
                    def _run_step(self):
                        return step_time(self._lens)
            """,
            repro__latency_model__steps="""
                def step_time(lens):
                    return sum(lens) * 0.001
            """,
        )
        assert rules_of(findings) == ["PERF001"]
        assert findings[0].path == "<repro.latency_model.steps>"

    def test_perf001_same_fixture_clean_without_hot_caller(self):
        findings = run_modules(
            select=["PERF001"],
            repro__latency_model__steps="""
                def step_time(lens):
                    return sum(lens) * 0.001
            """,
        )
        assert findings == []

    def test_det004_float_sum_in_helper_module_feeding_hot_path(self):
        findings = run_modules(
            select=["DET004"],
            repro__latency__report="""
                from repro.serving.rollup import total_time

                def report(records):
                    return total_time(records)
            """,
            repro__serving__rollup="""
                def total_time(records):
                    return sum(r.exec_time for r in records)
            """,
        )
        assert rules_of(findings) == ["DET004"]
        assert findings[0].path == "<repro.serving.rollup>"

    def test_det004_same_helper_clean_without_hot_caller(self):
        findings = run_modules(
            select=["DET004"],
            repro__serving__rollup="""
                def total_time(records):
                    return sum(r.exec_time for r in records)
            """,
        )
        assert findings == []

    def test_obs001_comprehension_in_helper_called_from_record(self):
        findings = run_modules(
            select=["OBS001"],
            repro__simulator__prof="""
                from repro.analysis.agg import snapshot

                class Profiler:
                    def record_exec(self, batch):
                        self.events.append(snapshot(batch))
            """,
            repro__analysis__agg="""
                def snapshot(batch):
                    return [r.id for r in batch]
            """,
        )
        assert rules_of(findings) == ["OBS001"]
        assert findings[0].path == "<repro.analysis.agg>"
        assert "reachable from a per-event hot path" in findings[0].message

    def test_obs001_same_helper_clean_without_hot_caller(self):
        findings = run_modules(
            select=["OBS001"],
            repro__analysis__agg="""
                def snapshot(batch):
                    return [r.id for r in batch]
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# Self-hosting: the shipped tree is clean
# ----------------------------------------------------------------------

class TestSelfHosting:
    def test_src_lints_clean(self):
        findings, checked = lint_paths([str(REPO_ROOT / "src")])
        assert checked > 50
        assert findings == [], format_findings(findings)

    def test_tests_lint_clean(self):
        findings, _checked = lint_paths([str(REPO_ROOT / "tests")])
        assert findings == [], format_findings(findings)
