"""Traced-run plumbing: per-layer call counts and self time.

Nothing here touches ``src/``. The traced run wraps each layer's public
entry points from the outside, for the duration of one traced pass, and
restores the originals afterwards:

* class methods are replaced on the class that defines them;
* a module-level function is replaced in *every* loaded ``repro`` module
  that binds it, because callers import public functions by name
  (``from ..latency.parallel import decode_times``);
* ``Simulation.schedule``/``schedule_at`` wrap each callback they are
  handed, so instance work that runs inside scheduled closures is timed
  and counted under the callback's ``__module__``.

Self time of a layer is the time inside its wrapped calls minus the time
inside wrapped calls it makes into other layers. One frame stack covers
the whole pass, and the pass itself is the root frame (layer ``other``),
so the self times of all layers sum to the traced wall time exactly, up
to float rounding. Spans stay in memory (as counters and a list of trial
durations) and are turned into metrics when the pass ends.
"""

from __future__ import annotations

import sys
import time
import types
from collections import defaultdict
from typing import Any, Callable

#: Layer of each ``repro`` module, by longest matching module prefix.
_MODULE_LAYERS = (
    ("repro.simulator.events", "events"),
    ("repro.simulator.decode_instance", "decode_instance"),
    ("repro.simulator.prefill_instance", "prefill_instance"),
    ("repro.simulator.colocated_instance", "colocated_instance"),
    ("repro.simulator.transfer", "transfer"),
    ("repro.simulator.kvcache", "kvcache"),
    ("repro.simulator.request", "request"),
    ("repro.simulator.tracing", "tracing"),
    ("repro.simulator.profiler", "profiler"),
    ("repro.simulator.metrics", "metrics"),
    ("repro.latency", "latency"),
    ("repro.scheduling", "scheduling"),
    ("repro.serving", "serving"),
    ("repro.workload", "workload"),
    ("repro.core.goodput", "goodput"),
    ("repro.core", "placement"),
    ("repro.analysis", "analysis"),
)

#: Every layer that reports a ``<layer>.self_s`` metric, ``other`` last.
LAYERS = tuple(layer for _, layer in _MODULE_LAYERS) + ("other",)


def layer_of(module: "str | None") -> str:
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or (module or "").startswith(prefix + "."):
            return layer
    return "other"


def _callback_module(callback: Any) -> "str | None":
    func = getattr(callback, "func", callback)  # functools.partial
    return getattr(func, "__module__", None)


class LayerClock:
    """Frame stack and counters of one traced pass."""

    def __init__(self) -> None:
        self.self_s: "dict[str, float]" = defaultdict(float)
        self.inclusive_s: "dict[str, float]" = defaultdict(float)
        self.counts: "dict[str, int]" = defaultdict(int)
        self.trial_s: "list[float]" = []
        self.tracers: "list[Any]" = []
        self.profilers: "list[Any]" = []
        # Frames are [layer, start, time spent in child frames].
        self._stack: "list[list[Any]]" = []
        self.wall_s = 0.0

    def run(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` as the root frame; the pass's wall time is its span."""
        stack = self._stack
        frame = ["other", time.perf_counter(), 0.0]
        stack.append(frame)
        try:
            return fn()
        finally:
            stack.pop()
            self.wall_s = time.perf_counter() - frame[1]
            self.self_s["other"] += self.wall_s - frame[2]

    def timed(
        self,
        fn: Callable[..., Any],
        layer: str,
        count: "str | None" = None,
        inclusive: "str | None" = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped in a frame of ``layer``.

        ``count`` names a counter bumped per call; ``inclusive`` names a
        bucket that accumulates the call's whole duration (children too).
        """
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        inclusive_s = self.inclusive_s
        perf = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if count is not None:
                counts[count] += 1
            frame = [layer, perf(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                duration = perf() - frame[1]
                self_s[layer] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if inclusive is not None:
                    inclusive_s[inclusive] += duration

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def callback(self, callback: Callable[[], None]) -> Callable[[], None]:
        """A scheduled callback, timed and counted under its module's layer."""
        layer = layer_of(_callback_module(callback))
        return self.timed(callback, layer, count=f"{layer}.events")


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: "list[tuple[Any, str, Any]]" = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def methods(
        self,
        clock: LayerClock,
        cls: type,
        layer: str,
        names: "tuple[str, ...] | None" = None,
        count_prefix: "str | None" = None,
    ) -> None:
        """Wrap plain functions defined on ``cls`` (public ones by default)."""
        for name, value in list(cls.__dict__.items()):
            if not isinstance(value, types.FunctionType):
                continue
            if names is not None:
                if name not in names:
                    continue
            elif name.startswith("_"):
                continue
            count = f"{count_prefix}.{name}.calls" if count_prefix else None
            self.set(cls, name, clock.timed(value, layer, count=count))

    def function(self, fn: Callable[..., Any], wrapper: Callable[..., Any]) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that binds it."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is fn:
                    self.set(module, name, wrapper)

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def _memo_wrapper(clock: LayerClock, fn: Callable[..., Any], cache_attr: str):
    """Count memo calls, and hits as calls that did not grow the memo."""
    timed = clock.timed(fn, "latency", count="latency.memo.calls")
    counts = clock.counts

    def wrapper(self: Any, *args: Any) -> Any:
        before = len(getattr(self, cache_attr))
        result = timed(self, *args)
        if len(getattr(self, cache_attr)) == before:
            counts["latency.memo.hits"] += 1
        return result

    return wrapper


def install(clock: LayerClock) -> Patches:
    """Wrap every layer's entry points; returns the handle that undoes it."""
    from repro.analysis import critpath, slo
    from repro.core import goodput, placement_high, placement_low, search
    from repro.latency import comm, memo, mixed, parallel, prefill
    from repro.scheduling import batch, dispatch, queue
    from repro.serving import base as serving_base
    from repro.serving import colocated, disaggregated, phase_only
    from repro.serving import dispatch as serving_dispatch
    from repro.simulator import (
        colocated_instance,
        decode_instance,
        events,
        kvcache,
        metrics,
        prefill_instance,
        profiler,
        request,
        tracing,
        transfer,
    )
    from repro.workload import datasets

    patches = Patches()
    counts = clock.counts

    # simulator.events: the loop, and every callback it is handed.
    sim_cls = events.Simulation
    schedule, schedule_at = sim_cls.schedule, sim_cls.schedule_at

    def traced_schedule(self: Any, delay: float, callback: Callable[[], None]) -> None:
        schedule(self, delay, clock.callback(callback))

    def traced_schedule_at(self: Any, at: float, callback: Callable[[], None]) -> None:
        schedule_at(self, at, clock.callback(callback))

    patches.set(sim_cls, "run", clock.timed(sim_cls.run, "events"))
    patches.set(sim_cls, "schedule", clock.timed(traced_schedule, "events"))
    patches.set(sim_cls, "schedule_at", clock.timed(traced_schedule_at, "events"))

    # Instances, KV cache, per-request accounting.
    for cls, layer in (
        (decode_instance.DecodeInstance, "decode_instance"),
        (prefill_instance.PrefillInstance, "prefill_instance"),
        (colocated_instance.ColocatedInstance, "colocated_instance"),
    ):
        patches.methods(clock, cls, layer)
    patches.methods(clock, kvcache.KVBlockManager, "kvcache", count_prefix="kvcache")
    patches.methods(
        clock, request.RequestState, "request",
        names=("record_token", "record_tokens", "to_record", "stamp"),
        count_prefix="request",
    )
    record_tokens = request.RequestState.__dict__["record_tokens"]

    def counted_record_tokens(self: Any, times: "list[float]") -> None:
        counts["request.tokens"] += len(times)
        record_tokens(self, times)

    record_token = request.RequestState.__dict__["record_token"]

    def counted_record_token(self: Any, at: float) -> None:
        counts["request.tokens"] += 1
        record_token(self, at)

    patches.set(request.RequestState, "record_tokens", counted_record_tokens)
    patches.set(request.RequestState, "record_token", counted_record_token)

    # simulator.transfer: completion hooks run in the layer that owns them.
    submit = transfer.TransferEngine.submit

    def traced_submit(self: Any, *args: Any, on_done: Callable[[], None], **kw: Any):
        layer = layer_of(_callback_module(on_done))
        return submit(self, *args, on_done=clock.timed(on_done, layer), **kw)

    patches.set(
        transfer.TransferEngine, "submit",
        clock.timed(traced_submit, "transfer", count="transfer.submits"),
    )

    # latency: the memoized timers and the analytical model entry points.
    patches.set(
        memo.DecodeStepTimer, "request_latency",
        _memo_wrapper(clock, memo.DecodeStepTimer.request_latency, "_by_batch_size"),
    )
    patches.set(
        memo.DecodeStepTimer, "step_latency_fn",
        _memo_wrapper(clock, memo.DecodeStepTimer.step_latency_fn, "_by_batch_size"),
    )
    patches.set(
        memo.PrefillBatchTimer, "times",
        _memo_wrapper(clock, memo.PrefillBatchTimer.times, "_by_shape"),
    )
    for fn in (
        parallel.decode_times, parallel.prefill_times, mixed.mixed_batch_latency,
        comm.kv_cache_bytes, prefill.saturation_length,
    ):
        patches.function(fn, clock.timed(fn, "latency", count="latency.model.calls"))

    # scheduling policies: every concrete policy's own methods.
    for module in (queue, batch, dispatch):
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == module.__name__:
                patches.methods(clock, value, "scheduling", count_prefix="scheduling")

    # serving glue: all methods of the systems (instances call back into
    # private hooks such as ``_on_prefill_done``), plus dispatch.
    for cls in (
        serving_base.ServingSystem, disaggregated.DisaggregatedSystem,
        colocated.ColocatedSystem, phase_only.PrefillOnlySystem,
        phase_only.DecodeOnlySystem,
    ):
        names = tuple(
            name for name, value in cls.__dict__.items()
            if isinstance(value, types.FunctionType)
            and (name == "__init__" or not name.startswith("__"))
        )
        patches.methods(clock, cls, "serving", names=names)
    patches.set(
        serving_dispatch.Dispatcher, "choose",
        clock.timed(
            serving_dispatch.Dispatcher.choose, "serving", count="serving.dispatches"
        ),
    )
    fn = serving_base.simulate_trace
    patches.function(fn, clock.timed(fn, "serving"))

    # workload: trace generation.
    fn = datasets.generate_trace
    patches.function(
        fn,
        clock.timed(
            fn, "workload", count="workload.generate_trace.calls",
            inclusive="workload.generate_trace_s",
        ),
    )

    # core.goodput: one frame per trial, with its outcome flags.
    trial = clock.timed(goodput.run_attainment_trial, "goodput", count="goodput.trials")

    def traced_trial(*args: Any, **kwargs: Any):
        start = time.perf_counter()
        outcome = trial(*args, **kwargs)
        clock.trial_s.append(time.perf_counter() - start)
        counts["goodput.trials_aborted"] += outcome.aborted
        counts["goodput.trials_truncated"] += outcome.truncated
        return outcome

    patches.function(goodput.run_attainment_trial, traced_trial)
    patches.function(goodput.max_goodput, clock.timed(goodput.max_goodput, "goodput"))

    # core.search and core.placement_*.
    for fn in (placement_high.place_high_affinity, placement_low.place_low_affinity):
        patches.function(fn, clock.timed(fn, "placement"))
    patches.function(
        search.fingerprint,
        clock.timed(
            search.fingerprint, "placement", count="search.fingerprint.calls",
            inclusive="search.fingerprint_s",
        ),
    )
    patches.methods(clock, search.TrialCache, "placement")
    patches.methods(clock, search.ParallelEvaluator, "placement", names=("run",))

    # Observers: only the real classes; their null objects stay untouched.
    for cls, layer, registry in (
        (tracing.Tracer, "tracing", clock.tracers),
        (profiler.Profiler, "profiler", clock.profilers),
    ):
        init = cls.__dict__["__init__"]

        def registering_init(self: Any, *a: Any, _init=init, _reg=registry, **kw: Any):
            _init(self, *a, **kw)
            _reg.append(self)

        patches.set(cls, "__init__", registering_init)
        patches.methods(clock, cls, layer)
    for cls in (
        metrics.MetricsRegistry, metrics.SloMonitor, metrics.Counter,
        metrics.Gauge, metrics.Histogram,
    ):
        patches.methods(clock, cls, "metrics")

    # analysis.
    patches.function(
        critpath.build_profile,
        clock.timed(
            critpath.build_profile, "analysis", inclusive="analysis.build_profile_s"
        ),
    )
    patches.function(
        slo.slo_attainment,
        clock.timed(
            slo.slo_attainment, "analysis", inclusive="analysis.slo_attainment_s"
        ),
    )
    return patches
