"""Whole-program call-graph construction tests (repro.lint.callgraph).

Each test feeds in-memory fixture modules through ``build_from_sources``
and asserts on the resolved edges: aliased imports, method resolution
through ``self`` and typed attributes, decorated functions, first-order
callables crossing the ParallelEvaluator boundary, nested defs, cycles,
and the determinism / disk-cache contract the engine relies on.
"""

from __future__ import annotations

import textwrap

from repro.lint.callgraph import (
    MODULE_NODE,
    CallableArg,
    _MEMO,
    build_from_sources,
    build_project,
)


def graph(**kwargs):
    """Build a graph from ``{module_name: source}`` (dots via dict)."""
    sources = kwargs.pop("sources", {})
    sources.update(kwargs)
    return build_from_sources(
        {module: textwrap.dedent(source) for module, source in sources.items()}
    )


class TestDirectResolution:
    def test_module_level_function_call(self):
        g = graph(sources={
            "repro.a": """
                def helper():
                    pass

                def caller():
                    helper()
            """,
        })
        assert "repro.a.helper" in g.edges["repro.a.caller"]

    def test_module_level_code_attributes_to_pseudo_node(self):
        g = graph(sources={
            "repro.a": """
                def helper():
                    pass

                helper()
            """,
        })
        assert "repro.a.helper" in g.edges[f"repro.a.{MODULE_NODE}"]

    def test_class_constructor_resolves_to_init(self):
        g = graph(sources={
            "repro.a": """
                class Widget:
                    def __init__(self):
                        pass

                def make():
                    return Widget()
            """,
        })
        assert "repro.a.Widget.__init__" in g.edges["repro.a.make"]


class TestAliasedImports:
    def test_from_import_with_alias(self):
        g = graph(sources={
            "repro.util": """
                def helper():
                    pass
            """,
            "repro.main": """
                from repro.util import helper as h

                def caller():
                    h()
            """,
        })
        assert "repro.util.helper" in g.edges["repro.main.caller"]

    def test_module_import_with_alias(self):
        g = graph(sources={
            "repro.util": """
                def helper():
                    pass
            """,
            "repro.main": """
                import repro.util as ru

                def caller():
                    ru.helper()
            """,
        })
        assert "repro.util.helper" in g.edges["repro.main.caller"]

    def test_relative_import(self):
        g = graph(sources={
            "repro.pkg.util": """
                def helper():
                    pass
            """,
            "repro.pkg.main": """
                from .util import helper

                def caller():
                    helper()
            """,
        })
        assert "repro.pkg.util.helper" in g.edges["repro.pkg.main.caller"]


class TestMethodResolution:
    def test_self_method_in_same_class(self):
        g = graph(sources={
            "repro.a": """
                class Engine:
                    def outer(self):
                        self.inner()

                    def inner(self):
                        pass
            """,
        })
        assert "repro.a.Engine.inner" in g.edges["repro.a.Engine.outer"]

    def test_typed_attribute_resolves_cross_module(self):
        g = graph(sources={
            "repro.kvcache": """
                class KVBlockManager:
                    def allocate(self, request_id, num_tokens):
                        pass
            """,
            "repro.sim": """
                from repro.kvcache import KVBlockManager

                class Instance:
                    def __init__(self):
                        self._kv = KVBlockManager()

                    def admit(self, rid, tokens):
                        self._kv.allocate(rid, tokens)
            """,
        })
        assert (
            "repro.kvcache.KVBlockManager.allocate"
            in g.edges["repro.sim.Instance.admit"]
        )

    def test_annotated_attribute_resolves(self):
        g = graph(sources={
            "repro.a": """
                class Pool:
                    def drain(self):
                        pass

                class Owner:
                    pool: Pool

                    def run(self):
                        self.pool.drain()
            """,
        })
        assert "repro.a.Pool.drain" in g.edges["repro.a.Owner.run"]

    def test_builtin_container_method_not_misresolved(self):
        # `pending.append(...)` is a list append; it must NOT resolve to
        # the only project method named `append` via unique-name fallback.
        g = graph(sources={
            "repro.a": """
                class KVBlockManager:
                    def append(self, request_id):
                        pass

                def pump(pending):
                    pending.append(1)
            """,
        })
        assert "repro.a.KVBlockManager.append" not in g.edges.get("repro.a.pump", ())

    def test_unique_project_method_fallback(self):
        # A project-unique, non-builtin method name resolves even when
        # the receiver's type is unknown.
        g = graph(sources={
            "repro.a": """
                class Prefill:
                    def release_kv(self, rid):
                        pass

                def finish(instance, rid):
                    instance.release_kv(rid)
            """,
        })
        assert "repro.a.Prefill.release_kv" in g.edges["repro.a.finish"]


class TestDecoratorsAndNesting:
    def test_decorator_edge_from_module_node(self):
        g = graph(sources={
            "repro.a": """
                def wrap(fn):
                    return fn

                @wrap
                def task():
                    pass
            """,
        })
        assert "repro.a.wrap" in g.edges[f"repro.a.{MODULE_NODE}"]

    def test_decorated_function_still_callable(self):
        g = graph(sources={
            "repro.a": """
                def wrap(fn):
                    return fn

                @wrap
                def task():
                    pass

                def caller():
                    task()
            """,
        })
        assert "repro.a.task" in g.edges["repro.a.caller"]

    def test_nested_def_called_from_parent(self):
        g = graph(sources={
            "repro.a": """
                class Instance:
                    def _kv_safe_steps(self, limit):
                        def extra(growth):
                            return growth
                        return extra(limit)
            """,
        })
        assert (
            "repro.a.Instance._kv_safe_steps.extra"
            in g.edges["repro.a.Instance._kv_safe_steps"]
        )


class TestCallableArguments:
    def test_callable_passed_to_evaluator(self):
        g = graph(sources={
            "repro.core.tasks": """
                def simulate_one():
                    pass

                def search(evaluator):
                    evaluator.run([simulate_one])
            """,
        })
        assert "repro.core.tasks.simulate_one" in g.edges["repro.core.tasks.search"]
        assert (
            CallableArg(
                caller="repro.core.tasks.search",
                sink="run",
                callee="repro.core.tasks.simulate_one",
            )
            in g.callable_args
        )

    def test_callback_keyword_argument(self):
        g = graph(sources={
            "repro.a": """
                def sample():
                    return 0

                def wire(registry):
                    registry.gauge("depth", "d", fn=sample)
            """,
        })
        assert any(
            arg.sink == "gauge" and arg.callee == "repro.a.sample"
            for arg in g.callable_args
        )


class TestReachability:
    def test_cycle_terminates_and_includes_both(self):
        g = graph(sources={
            "repro.a": """
                def ping():
                    pong()

                def pong():
                    ping()
            """,
        })
        reachable = g.reachable_from(["repro.a.ping"])
        assert {"repro.a.ping", "repro.a.pong"} <= reachable

    def test_cross_module_transitive_reachability(self):
        g = graph(sources={
            "repro.a": """
                from repro.b import middle

                def root():
                    middle()
            """,
            "repro.b": """
                from repro.c import leaf

                def middle():
                    leaf()
            """,
            "repro.c": """
                def leaf():
                    pass
            """,
        })
        assert "repro.c.leaf" in g.reachable_from(["repro.a.root"])

    def test_unknown_seeds_ignored(self):
        g = graph(sources={"repro.a": "def f():\n    pass\n"})
        assert g.reachable_from(["repro.zzz.missing"]) == frozenset()


class TestDeterminismAndCaching:
    SOURCES = {
        "repro.x": """
            def helper():
                pass

            def caller():
                helper()
        """,
        "repro.y": """
            from repro.x import helper

            def other():
                helper()
        """,
    }

    def test_two_builds_identical(self):
        first = graph(sources=dict(self.SOURCES))
        edges_first = dict(first.edges)
        callable_first = tuple(first.callable_args)
        _MEMO.clear()
        second = graph(sources=dict(self.SOURCES))
        assert second.edges == edges_first
        assert tuple(second.callable_args) == callable_first

    def test_in_memory_memo_reuses_graph(self):
        first = graph(sources=dict(self.SOURCES))
        second = graph(sources=dict(self.SOURCES))
        assert first is second

    def test_disk_cache_roundtrip(self, tmp_path):
        entries = [
            (module, f"<{module}>", textwrap.dedent(source))
            for module, source in sorted(self.SOURCES.items())
        ]
        _MEMO.clear()  # an in-memory hit would skip the disk write
        first = build_project(entries, cache_dir=tmp_path)
        cache_files = list(tmp_path.glob("callgraph-*.json"))
        assert len(cache_files) == 1
        edges = dict(first.edges)
        _MEMO.clear()  # force the second build to hit the disk cache
        second = build_project(entries, cache_dir=tmp_path)
        assert second.edges == edges

    def test_source_change_invalidates_cache_key(self, tmp_path):
        entries = [("repro.x", "<repro.x>", "def f():\n    pass\n")]
        _MEMO.clear()
        build_project(entries, cache_dir=tmp_path)
        _MEMO.clear()
        changed = [("repro.x", "<repro.x>", "def g():\n    pass\n")]
        build_project(changed, cache_dir=tmp_path)
        assert len(list(tmp_path.glob("callgraph-*.json"))) == 2
