"""The reprolint rule pack: this codebase's determinism invariants.

Each rule encodes one way the simulator's guarantees — golden traces
(PR 1), byte-deterministic metrics exports (PR 2), and the trial-cache
fingerprints / serial-parallel search parity (PR 3) — have historically
broken in systems like this one:

==========  ==========================================================
DET001      wall-clock reads inside ``repro.simulator``/``repro.core``
DET002      module-level or unseeded ``random``/``numpy.random``
DET003      set/dict-view iteration feeding ordering-sensitive sinks
DET004      bare ``sum()`` float accumulation in latency/goodput paths
SIM002      re-entrant scheduler mutation from callbacks
PAR001      unpicklable objects handed to the parallel evaluator
OBS001      comprehensions in profiler/metric per-event hot paths
PERF001     ``sum()`` reductions reachable from the decode step loop
==========  ==========================================================

Scoping is deliberate: rules only fire where the invariant actually
matters (DET001 does not ban ``time`` in benchmarks; DET004 only covers
the hot paths whose floats reach reports), so a finding is a bug or a
decision — never noise to be ignored.
"""

from __future__ import annotations

import ast
import re
from typing import TYPE_CHECKING, Iterator, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from .callgraph import FunctionNode, ProjectGraph

from .engine import (
    ModuleContext,
    Rule,
    call_name,
    call_tail,
    dotted_name,
    receiver_tail,
    register,
)

__all__ = [
    "WallClockRule",
    "UnseededRngRule",
    "UnorderedIterationRule",
    "FloatSumRule",
    "ReentrantMutationRule",
    "PicklableTaskRule",
    "HotPathComprehensionRule",
    "DecodeLoopSumRule",
]

_Yield = Iterator[Tuple[ast.AST, str]]


# ----------------------------------------------------------------------
# DET001 — virtual time only
# ----------------------------------------------------------------------

#: Wall-clock sources that must never influence simulation state. The
#: simulator's clock is :attr:`repro.simulator.events.Simulation.now`;
#: anything else makes traces, metrics and cache fingerprints
#: run-dependent.
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


@register
class WallClockRule(Rule):
    """No wall-clock reads inside ``repro.simulator`` / ``repro.core``.

    Rationale:
        The simulator's only clock is ``Simulation.now``. Any
        ``time.time()`` / ``datetime.now()`` read that influences
        simulation state makes golden traces, metrics exports, and cache
        fingerprints differ run to run. Bare references passed as
        callbacks (``key=time.time``) are flagged too.

    Example violation:
        started = time.time()   # DET001 (inside repro.simulator)

    Suppression:
        t = time.time()  # reprolint: disable=DET001 -- diagnostics only
    """

    name = "DET001"
    summary = "no wall-clock reads inside repro.simulator / repro.core"

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.module.startswith(
            ("repro.simulator", "repro.core", "repro.scheduling")
        )

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> _Yield:
        name = call_name(node)
        if name in _WALL_CLOCK:
            yield node, (
                f"wall-clock read `{name}()` in {ctx.module}; simulation "
                "code must use virtual time (Simulation.now) only"
            )

    def visit_Attribute(self, node: ast.Attribute, ctx: ModuleContext) -> _Yield:
        # A bare reference (e.g. `key=time.time` passed as a callback)
        # is just as dangerous as a call. Skip chains already reported
        # via visit_Call and inner links of longer attribute chains.
        parent = ctx.parent()
        if isinstance(parent, ast.Attribute):
            return
        if isinstance(parent, ast.Call) and parent.func is node:
            return
        name = dotted_name(node)
        if name in _WALL_CLOCK:
            yield node, (
                f"wall-clock reference `{name}` in {ctx.module}; simulation "
                "code must use virtual time (Simulation.now) only"
            )


# ----------------------------------------------------------------------
# DET002 — seeded, explicitly threaded randomness
# ----------------------------------------------------------------------

#: numpy.random attributes that are *constructors* of explicit, seedable
#: generator state — everything else on the module is the shared legacy
#: global RNG.
_NP_RANDOM_OK = {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox"}


@register
class UnseededRngRule(Rule):
    """No module-level or unseeded ``random`` / ``numpy.random``.

    Rationale:
        Stdlib ``random`` and numpy's legacy global RNG are shared
        process state: any import-order or call-order change reshuffles
        every downstream draw. Randomness must be an explicitly seeded
        ``np.random.default_rng(seed)`` Generator threaded through the
        code that uses it, constructed inside a function (module-level
        generators are shared mutable state).

    Example violation:
        rng = np.random.default_rng()   # DET002: no seed, OS entropy

    Suppression:
        import random  # reprolint: disable=DET002 -- CLI demo only
    """

    name = "DET002"
    summary = "no module-level or unseeded random / numpy.random"

    def visit_Import(self, node: ast.Import, ctx: ModuleContext) -> _Yield:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                yield node, (
                    "stdlib `random` is process-global state; thread a "
                    "seeded numpy Generator through instead"
                )

    def visit_ImportFrom(self, node: ast.ImportFrom, ctx: ModuleContext) -> _Yield:
        if node.module == "random":
            yield node, (
                "stdlib `random` is process-global state; thread a "
                "seeded numpy Generator through instead"
            )

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> _Yield:
        name = call_name(node)
        if name is None:
            return
        parts = name.split(".")
        # random.random(), random.seed(), random.shuffle(), ...
        if parts[0] == "random" and len(parts) > 1:
            yield node, (
                f"`{name}()` uses the process-global stdlib RNG; thread a "
                "seeded numpy Generator through instead"
            )
            return
        # np.random.rand() / numpy.random.seed() / ... — the legacy
        # global-state API; only explicit Generator construction is OK.
        if len(parts) >= 3 and parts[-3] in ("np", "numpy") and parts[-2] == "random":
            if parts[-1] not in _NP_RANDOM_OK:
                yield node, (
                    f"`{name}()` mutates/reads numpy's global RNG; construct "
                    "a Generator via np.random.default_rng(seed) and pass it"
                )
                return
        if parts[-1] == "default_rng":
            if not node.args and not node.keywords:
                yield node, (
                    "`default_rng()` without a seed draws OS entropy — "
                    "every run differs; pass an explicit seed"
                )
            elif not ctx.in_function():
                yield node, (
                    "module-level RNG is shared mutable state; construct "
                    "generators inside the function/workload that uses them"
                )


# ----------------------------------------------------------------------
# DET003 — deterministic iteration into ordering-sensitive sinks
# ----------------------------------------------------------------------

#: Call tails whose argument/effect order changes observable results:
#: heap layout, event scheduling order, and fingerprint/hash digests.
_ORDER_SINKS = {
    "heappush",
    "heapify",
    "heappushpop",
    "schedule",
    "schedule_at",
    "submit",
    "fingerprint",
    "update",  # hashlib's digest.update — order-sensitive by definition
    "write",
}

_SET_CONSTRUCTORS = {"set", "frozenset"}
_SET_METHODS = {
    "union", "intersection", "difference", "symmetric_difference",
}
_VIEW_METHODS = {"values", "keys", "items"}


def _unordered_source(node: ast.expr) -> "str | None":
    """Describe why iterating ``node`` has no guaranteed stable order."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.Call):
        tail = call_tail(node)
        if tail in _SET_CONSTRUCTORS and isinstance(node.func, ast.Name):
            return f"`{tail}()`"
        if tail in _SET_METHODS:
            return f"a set (`.{tail}()`)"
        if tail in _VIEW_METHODS and isinstance(node.func, ast.Attribute):
            return f"a dict view (`.{tail}()`)"
    return None


def _order_sink_in(body: "list[ast.stmt]") -> "ast.Call | None":
    for stmt in body:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Call) and call_tail(sub) in _ORDER_SINKS:
                return sub
    return None


@register
class UnorderedIterationRule(Rule):
    """No set/dict-view iteration feeding ordering-sensitive sinks.

    Rationale:
        Iterating a set (or, across interpreter versions, a dict view)
        has no guaranteed stable order; feeding it into heap pushes,
        event scheduling, hash updates, or writes makes the observable
        result depend on hash seeding. Sort the iterable (or use an
        insertion-ordered sequence) before it reaches the sink.

    Example violation:
        for req in pending_set:
            heappush(heap, req)   # DET003

    Suppression:
        for x in s:  # reprolint: disable=DET003 -- singleton set
    """

    name = "DET003"
    summary = "no set/dict-view iteration feeding ordering-sensitive sinks"

    def visit_For(self, node: ast.For, ctx: ModuleContext) -> _Yield:
        source = _unordered_source(node.iter)
        if source is None:
            return
        sink = _order_sink_in(node.body)
        if sink is not None:
            yield node, (
                f"iterating {source} feeds ordering-sensitive sink "
                f"`{call_tail(sink)}` (line {sink.lineno}); iterate a "
                "sorted() or insertion-ordered sequence instead"
            )

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> _Yield:
        # Generator/comprehension piped straight into a sink:
        #   h.update(render(x) for x in some_set)
        #   heap.extend(sorted(...)) is fine — sorted() restores order.
        if call_tail(node) not in _ORDER_SINKS:
            return
        for arg in node.args:
            if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
                for comp in arg.generators:
                    source = _unordered_source(comp.iter)
                    if source is not None:
                        yield arg, (
                            f"comprehension over {source} feeds "
                            f"ordering-sensitive sink `{call_tail(node)}`; "
                            "sort the iterable first"
                        )


# ----------------------------------------------------------------------
# DET004 — order-robust float accumulation in hot reporting paths
# ----------------------------------------------------------------------

#: Modules whose float sums surface in reports/fingerprints, where
#: `sum()`'s left-to-right rounding makes results depend on record
#: order; `math.fsum` is exactly rounded and order-independent.
_HOT_PATH_PREFIXES = ("repro.latency",)
_HOT_PATH_MODULES = {
    "repro.analysis.breakdown",
    "repro.analysis.percentiles",
    "repro.core.goodput",
}

#: Identifier fragments that mark a summand as (seconds-valued) float.
_FLOAT_HINT = re.compile(
    r"(time|latency|queue|exec|transfer|goodput|seconds|frac|util|stall)",
    re.IGNORECASE,
)


def _float_hinted(node: ast.expr) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and _FLOAT_HINT.search(sub.attr):
            return True
        if isinstance(sub, ast.Name) and _FLOAT_HINT.search(sub.id):
            return True
    return False


def _is_hot_reporting_module(module: str) -> bool:
    return module in _HOT_PATH_MODULES or module.startswith(_HOT_PATH_PREFIXES)


@register
class FloatSumRule(Rule):
    """Float accumulation in hot reporting paths must use ``math.fsum``.

    Rationale:
        ``sum()`` of floats rounds left-to-right, so the total depends on
        record order — which breaks byte-identical metrics exports and
        trial-cache fingerprints. ``math.fsum`` is exactly rounded and
        order-independent. Scope: repro.latency, repro.analysis
        breakdown/percentiles, repro.core.goodput, plus any function
        reachable from those modules through the project call graph
        (helpers whose totals flow back into reports).

    Example violation:
        total = sum(r.exec_time for r in records)   # DET004

    Suppression:
        total = sum(xs)  # reprolint: disable=DET004 -- ints only, exact
    """

    name = "DET004"
    summary = "float accumulation in hot paths must use math.fsum"

    def __init__(self) -> None:
        self._reach: "dict[int, frozenset[str]]" = {}

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.module.startswith("repro.")

    def _reachable(self, project: "ProjectGraph") -> "frozenset[str]":
        key = id(project)
        cached = self._reach.get(key)
        if cached is None:
            seeds = [
                qualname
                for qualname, fn in project.functions.items()
                if _is_hot_reporting_module(fn.module)
            ]
            cached = project.reachable_from(seeds)
            self._reach[key] = cached
        return cached

    def _in_scope(self, ctx: ModuleContext) -> bool:
        if _is_hot_reporting_module(ctx.module):
            return True
        # Cross-module: a helper elsewhere whose sum feeds a hot module.
        if ctx.project is None:
            return False
        return ctx.scope_qualname() in self._reachable(ctx.project)

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> _Yield:
        if not (isinstance(node.func, ast.Name) and node.func.id == "sum"):
            return
        if not node.args:
            return
        if not self._in_scope(ctx):
            return
        arg = node.args[0]
        if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
            elt = arg.elt
            # Integer counting (`sum(1 for ...)`, `sum(len(x) ...)`) is exact.
            if isinstance(elt, ast.Constant) and isinstance(elt.value, int):
                return
            if isinstance(elt, ast.Call) and call_tail(elt) == "len":
                return
            if _float_hinted(elt):
                yield node, (
                    "bare sum() of float series accumulates rounding error "
                    "in record order; use math.fsum (exactly rounded, "
                    "order-independent)"
                )
        elif isinstance(arg, ast.Call) and call_tail(arg) in _VIEW_METHODS:
            yield node, (
                "bare sum() over a dict view of floats; use math.fsum so "
                "the reported total is independent of accumulation order"
            )
        elif isinstance(arg, (ast.Name, ast.Attribute)) and _float_hinted(arg):
            yield node, (
                "bare sum() of a float sequence in a hot reporting path; "
                "use math.fsum"
            )


# ----------------------------------------------------------------------
# SIM002 — no re-entrant scheduler mutation from read callbacks
# ----------------------------------------------------------------------

#: Attribute-call tails that mutate shared simulator or container state.
#: A metrics/telemetry read callback invoking any of these re-enters the
#: scheduler (or shifts state mid-event) and breaks replay determinism.
_MUTATORS = {
    "schedule", "schedule_at", "run", "stop",
    "append", "appendleft", "extend", "insert", "add", "discard",
    "remove", "pop", "popleft", "clear", "setdefault",
    "heappush", "heappop", "heapify",
    "allocate", "free", "observe", "inc", "record", "set_value",
}

#: Receiver names of the simulation loop (``self._sim.run()``, ...).
_SIM_RECEIVERS = {"sim", "_sim", "simulation", "_simulation"}

#: Registration calls whose callable argument must be a pure read.
_CALLBACK_SINKS = {"counter", "gauge", "histogram", "register"}


def _impure_call_in(body: ast.AST) -> "ast.Call | None":
    for sub in ast.walk(body):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            if sub.func.attr in _MUTATORS:
                return sub
    return None


@register
class ReentrantMutationRule(Rule):
    """Metric callbacks and handlers must not mutate scheduler state.

    Rationale:
        Metric read callbacks run during collection passes, in the
        middle of event processing; if one schedules events, mutates
        containers, or re-enters ``Simulation.run``, replay determinism
        breaks in ways that depend on when collection happened. Read
        callbacks must be pure; event callbacks schedule follow-ups
        instead of calling ``run`` re-entrantly.

    Example violation:
        registry.gauge("depth", "d", fn=lambda: self.q.pop())   # SIM002

    Suppression:
        fn=lambda: drain()  # reprolint: disable=SIM002 -- drain is read-only
    """

    name = "SIM002"
    summary = "metric callbacks and handlers must not mutate scheduler state"

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.module.startswith("repro.")

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> _Yield:
        tail = call_tail(node)
        if tail not in _CALLBACK_SINKS:
            return
        callbacks: "list[ast.expr]" = [
            kw.value for kw in node.keywords if kw.arg == "fn"
        ]
        if tail == "register" and len(node.args) >= 2:
            callbacks.append(node.args[1])
        for callback in callbacks:
            if not isinstance(callback, ast.Lambda):
                continue
            for sub in ast.walk(callback.body):
                if isinstance(sub, ast.NamedExpr):
                    yield callback, (
                        "metric callback assigns state (walrus); read "
                        "callbacks must be pure"
                    )
                    break
            impure = _impure_call_in(callback.body)
            if impure is not None:
                yield callback, (
                    f"metric callback calls mutator `{call_tail(impure)}` "
                    f"(line {impure.lineno}); sampling must not mutate "
                    "simulator or container state re-entrantly"
                )

    def visit_Lambda(self, node: ast.Lambda, ctx: ModuleContext) -> _Yield:
        yield from self._check_reentrant_run(node.body, node, ctx)

    def visit_FunctionDef(self, node: ast.FunctionDef, ctx: ModuleContext) -> _Yield:
        if ctx.in_function():  # only nested defs are event callbacks
            for stmt in node.body:
                yield from self._check_reentrant_run(stmt, node, ctx)

    def _check_reentrant_run(
        self, body: ast.AST, owner: ast.AST, ctx: ModuleContext
    ) -> _Yield:
        for sub in ast.walk(body):
            if (
                isinstance(sub, ast.Call)
                and call_tail(sub) == "run"
                and receiver_tail(sub) in _SIM_RECEIVERS
            ):
                yield sub, (
                    "callback re-enters Simulation.run; the event loop is "
                    "not re-entrant — schedule follow-up events instead"
                )


# ----------------------------------------------------------------------
# PAR001 — picklable-by-construction parallel tasks
# ----------------------------------------------------------------------

#: Constructors/entry points whose arguments cross the process-pool
#: boundary and therefore must pickle (module-level callables, frozen
#: dataclasses — never lambdas or closures).
_PICKLE_BOUNDARIES = {"GoodputTask", "make_phase_task", "make_joint_task"}
_EVALUATOR_RECEIVERS = {"evaluator", "_evaluator", "pool", "_pool"}


@register
class PicklableTaskRule(Rule):
    """Parallel-evaluator tasks must be picklable by construction.

    Rationale:
        Arguments to ``GoodputTask`` / ``make_phase_task`` /
        ``evaluator.run|map|submit`` cross the process-pool boundary and
        must pickle. Lambdas and functions defined inside another
        function never do — the failure surfaces only when the parallel
        path is exercised, so it is caught statically instead.

    Example violation:
        evaluator.run([lambda: simulate(cfg)])   # PAR001

    Suppression:
        pool.submit(fn)  # reprolint: disable=PAR001 -- thread pool, no pickle
    """

    name = "PAR001"
    summary = "parallel-evaluator tasks must be picklable by construction"

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.module.startswith("repro.core")

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> _Yield:
        tail = call_tail(node)
        crosses = tail in _PICKLE_BOUNDARIES or (
            tail in ("run", "map", "submit")
            and receiver_tail(node) in _EVALUATOR_RECEIVERS
        )
        if not crosses:
            return
        values = list(node.args) + [kw.value for kw in node.keywords]
        # Descend one level into literal containers: `evaluator.run([task])`
        # ships every element across the boundary too.
        for value in list(values):
            if isinstance(value, (ast.List, ast.Tuple)):
                values.extend(value.elts)
        for value in values:
            if isinstance(value, ast.Lambda):
                yield value, (
                    f"lambda passed across the process-pool boundary via "
                    f"`{tail}`; lambdas do not pickle — use a module-level "
                    "function or functools.partial over one"
                )
            elif isinstance(value, ast.Name) and value.id in ctx.nested_def_names:
                yield value, (
                    f"`{value.id}` is defined inside a function; nested "
                    f"functions do not pickle across `{tail}` — hoist it "
                    "to module level"
                )


# ----------------------------------------------------------------------
# OBS001 — allocation-light observability hot paths
# ----------------------------------------------------------------------

#: Per-event observability entry points: methods called once per span,
#: metric sample, or profiler event. At trace volume (10^5-10^6 events
#: per run) a comprehension's freshly-allocated list/dict per call is
#: measurable overhead — the <5% profiler budget in
#: benchmarks/bench_profile_overhead.py depends on these staying
#: append-only. Names are matched exactly, plus any method whose name
#: starts with ``record``.
_HOT_EVENT_METHODS = {
    "begin_pending",
    "end_pending",
    "note_pending",
    "span",
    "instant",
    "observe",
    "observe_arrival",
    "observe_completion",
    "inc",
    "dec",
    "set",
}

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

_COMP_LABEL = {
    ast.ListComp: "list comprehension",
    ast.SetComp: "set comprehension",
    ast.DictComp: "dict comprehension",
    ast.GeneratorExp: "generator expression",
}


def _is_hot_event_method(name: str) -> bool:
    return name in _HOT_EVENT_METHODS or name.startswith("record")


def _own_body(fn: ast.AST, include_lambdas: bool) -> "Iterator[ast.AST]":
    """Walk a function body without descending into nested defs.

    Nested defs are separate call-graph nodes judged by their own
    reachability; lambdas have no node of their own, so callers choose
    whether to attribute them to the enclosing function.
    """
    stack: "list[ast.AST]" = list(ast.iter_child_nodes(fn))
    while stack:
        sub = stack.pop()
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(sub, ast.Lambda) and not include_lambdas:
            continue
        stack.extend(ast.iter_child_nodes(sub))
        yield sub


@register
class HotPathComprehensionRule(Rule):
    """No comprehensions in profiler/metric per-event hot paths.

    Rationale:
        Per-event observability entry points (``record*``, ``span``,
        ``observe``, ``inc``, ...) run 10^5-10^6 times per trace; a
        comprehension allocates a fresh container every call, which is
        measurable against the <5% profiler-overhead budget. The rule
        flags comprehensions in those methods *and* in every function
        the project call graph shows they reach — a helper in another
        module called from ``record_exec`` is just as hot. Metric read
        callbacks (``fn=lambda: ...`` and callables handed to
        counter/gauge/histogram/register) are hot for the same reason.

    Example violation:
        def record_exec(self, batch):
            self.events.append([r.id for r in batch])   # OBS001

    Suppression:
        xs = [f(e) for e in evs]  # reprolint: disable=OBS001 -- cold branch
    """

    name = "OBS001"
    summary = "no comprehensions in profiler/metric per-event hot paths"

    def __init__(self) -> None:
        self._reach: "dict[int, frozenset[str]]" = {}

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.module.startswith("repro.")

    @staticmethod
    def _is_seed(fn: "FunctionNode") -> bool:
        return (
            fn.cls is not None
            and _is_hot_event_method(fn.name)
            and fn.module.startswith(
                ("repro.simulator", "repro.serving", "repro.scheduling")
            )
        )

    def _reachable(self, project: "ProjectGraph") -> "frozenset[str]":
        key = id(project)
        cached = self._reach.get(key)
        if cached is None:
            seeds = [
                qualname
                for qualname, fn in project.functions.items()
                if self._is_seed(fn)
            ]
            # Callables registered as metric read callbacks run on every
            # collection pass — same budget as the record methods.
            seeds.extend(
                arg.callee
                for arg in project.callable_args
                if arg.sink in _CALLBACK_SINKS
            )
            cached = project.reachable_from(seeds)
            self._reach[key] = cached
        return cached

    def visit_Module(self, node: ast.Module, ctx: ModuleContext) -> _Yield:
        project = ctx.project
        if project is None:
            return
        hot = self._reachable(project)
        for fn in project.functions_in_module(ctx.module):
            if fn.qualname not in hot or fn.node is None:
                continue
            where = (
                f"per-event hot path `{fn.name}`"
                if self._is_seed(fn)
                else f"`{fn.name}`, reachable from a per-event hot path"
            )
            for sub in _own_body(fn.node, include_lambdas=False):
                if isinstance(sub, _COMPREHENSIONS):
                    yield sub, (
                        f"{_COMP_LABEL[type(sub)]} in {where}; this runs "
                        "once per span/metric/profiler event — append "
                        "plain tuples or use an explicit loop instead of "
                        "allocating a fresh container per call"
                    )

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> _Yield:
        # Metric read callbacks (`fn=lambda: ...`) run on every
        # collection pass — same per-event budget as the record methods.
        tail = call_tail(node)
        if tail not in _CALLBACK_SINKS:
            return
        callbacks: "list[ast.expr]" = [
            kw.value for kw in node.keywords if kw.arg == "fn"
        ]
        if tail == "register" and len(node.args) >= 2:
            callbacks.append(node.args[1])
        for callback in callbacks:
            if not isinstance(callback, ast.Lambda):
                continue
            for sub in ast.walk(callback.body):
                if isinstance(sub, _COMPREHENSIONS):
                    yield sub, (
                        f"{_COMP_LABEL[type(sub)]} in metric read "
                        "callback; collection samples every child each "
                        "pass — precompute or loop without allocating "
                        "per call"
                    )


# ----------------------------------------------------------------------
# PERF001 — O(1) work per decode step
# ----------------------------------------------------------------------

#: Entry points of the decode step loop: the per-step reference path,
#: the macro-run planner/finisher, and every helper the fast-forward
#: kernel (DESIGN.md §4h) calls while a run is in flight. Anything these
#: reach transitively runs once per decode step (or per macro run on a
#: batch of B requests), so an O(B) ``sum(...)`` reduction there undoes
#: the kernel's incremental bookkeeping.
_DECODE_LOOP_ROOTS = frozenset({
    "_run_step",
    "_finish_step",
    "_advance_decodes",
    "_finish_fast_run",
    "_materialize",
    "sync_to_now",
    "_kv_safe_steps",
})

#: Scheduling-policy entry points (repro.scheduling): every one runs
#: inside the batch-formation / admission path, once per scheduling
#: round, so the same O(B)-reduction discipline as the decode loop
#: applies to everything they reach.
_SCHED_LOOP_ROOTS = frozenset({
    "form_prefill",
    "reorder",
    "admit_decode",
    "select",
})


@register
class DecodeLoopSumRule(Rule):
    """No ``sum()`` reductions reachable from the decode step loop.

    Rationale:
        The decode step loop (``_run_step`` and the fast-forward kernel
        helpers, DESIGN.md §4h) runs once per decode step; an O(batch)
        ``sum(...)`` there undoes the kernel's incremental bookkeeping.
        Reachability is computed on the whole-program call graph, so a
        sum in ``repro.latency`` called from ``_run_step`` is flagged
        even though it lives outside the simulator package.

    Example violation:
        def _run_step(self):
            return sum(s.context_len for s in self._active)   # PERF001

    Suppression:
        t = sum(xs)  # reprolint: disable=PERF001 -- cold failure branch
    """

    name = "PERF001"
    summary = "no sum() reductions reachable from the decode step loop"

    def __init__(self) -> None:
        self._reach: "dict[int, frozenset[str]]" = {}

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.module.startswith("repro.")

    def _reachable(self, project: "ProjectGraph") -> "frozenset[str]":
        key = id(project)
        cached = self._reach.get(key)
        if cached is None:
            seeds = [
                qualname
                for qualname, fn in project.functions.items()
                if (
                    fn.name in _DECODE_LOOP_ROOTS
                    and fn.module.startswith("repro.simulator")
                )
                or (
                    fn.name in _SCHED_LOOP_ROOTS
                    and fn.module.startswith("repro.scheduling")
                )
            ]
            cached = project.reachable_from(seeds)
            self._reach[key] = cached
        return cached

    def visit_Module(self, node: ast.Module, ctx: ModuleContext) -> _Yield:
        project = ctx.project
        if project is None:
            return
        reachable = self._reachable(project)
        for fn in project.functions_in_module(ctx.module):
            if fn.qualname not in reachable or fn.node is None:
                continue
            # Lambdas run inline on the step path, so they count as part
            # of the enclosing function; nested defs are their own nodes.
            for sub in _own_body(fn.node, include_lambdas=True):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "sum"
                ):
                    yield sub, (
                        f"sum() in `{fn.name}`, reachable from the "
                        "decode step loop; this is O(batch) work "
                        "per step — maintain the total "
                        "incrementally or hoist it out of the loop "
                        "(DESIGN.md §4h)"
                    )
