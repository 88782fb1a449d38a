"""Search-acceleration layer: parallel, memoized, pruned placement search.

The paper parallelizes its simulator-driven placement search on a
96-core machine (§6.5, Figure 12); this module is our equivalent engine.
It provides three cooperating pieces the placement algorithms
(:mod:`repro.core.placement_high`, :mod:`repro.core.placement_low`)
are built on:

1. **Parallel evaluator** — :class:`ParallelEvaluator` fans independent
   goodput searches (one per candidate configuration and phase, plus the
   joint simulations of Algorithm 2; each a :class:`GoodputTask` of one
   shape, a trial factory and the SLO its trials are judged by) across a
   ``concurrent.futures.ProcessPoolExecutor``. With ``workers <= 1``
   everything runs in-process; because each task is deterministic,
   results and statistics are *identical* in both modes.
2. **Deterministic trial cache** — :class:`TrialCache` memoizes
   :func:`repro.core.goodput.run_attainment_trial` outcomes keyed by a
   process-stable :func:`fingerprint` of everything that determines a
   trial (instance spec / system factory, dataset parameters, SLO, rate,
   trace length, seed, duration). The doubling+bisection phases of the
   goodput search re-probe the same rates constantly across searches;
   cache snapshots ride along to worker processes and fresh entries are
   merged back, so warm searches replay from memory. Each placement
   search starts from a fresh cache unless its caller passes one to
   share, so its statistics never depend on what ran before it.
3. **Pruning** — sound rules that skip simulations whose outcome is
   already decided: an *SLO-infeasibility* bound derived from the
   latency model's own floor (a configuration whose unloaded latency
   already violates the SLO scores zero goodput at every rate), and a
   *dominance* bound (a configuration whose per-GPU goodput upper bound
   cannot beat the best already measured is skipped). Pruning decisions
   are taken wave-by-wave in enumeration order using only results from
   completed waves, which makes them independent of worker count — the
   serial and parallel searches prune identically.

Fingerprints use SHA-256 over a canonical encoding of nested frozen
dataclasses, so they are stable across processes, interpreters, and
``PYTHONHASHSEED`` values — unlike built-in ``hash()``.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from .goodput import (
    GoodputResult,
    RATE_HI_CAP,
    TrialOutcome,
    max_goodput,
    run_attainment_trial,
)
from .simulate import PHASE_TRIAL_MIN_DURATION, phase_trial_setup
from ..latency.parallel import decode_times, prefill_times
from ..scheduling.config import DEFAULT_SCHEDULING, SchedulingConfig
from ..simulator.instance import InstanceSpec
from ..workload.datasets import SyntheticDataset
from ..workload.slos import SLO

__all__ = [
    "fingerprint",
    "trial_context_fingerprint",
    "TrialEntry",
    "TrialCache",
    "PlacementSearchStats",
    "GoodputTask",
    "GoodputTaskResult",
    "make_task",
    "make_phase_task",
    "ParallelEvaluator",
    "phase_floor_latency",
    "phase_slo_infeasible",
    "PRUNE_WAVE",
    "JOINT_PRUNE_WAVE",
]

#: Configs per dominance-pruning wave in Algorithm 1. Fixed (never derived
#: from ``workers``) so pruning decisions — which only use results from
#: completed waves — are identical for every worker count.
PRUNE_WAVE = 8

#: Joint simulations per wave in Algorithm 2's top-K refinement.
JOINT_PRUNE_WAVE = 2

_FINGERPRINT_VERSION = "repro-search-v1"


# ----------------------------------------------------------------------
# Stable fingerprints
# ----------------------------------------------------------------------

def _canonical(obj: Any, out: "list[str]") -> None:
    """Append a canonical, process-stable token stream for ``obj``."""
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        out.append(repr(obj))
    elif isinstance(obj, float):
        # repr() is the shortest round-trip representation — identical on
        # every CPython build for the same bit pattern.
        out.append(repr(obj))
    elif isinstance(obj, enum.Enum):
        out.append(f"E{type(obj).__qualname__}.{obj.name}")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        out.append(f"D{cls.__module__}.{cls.__qualname__}(")
        for f in dataclasses.fields(obj):
            out.append(f"{f.name}=")
            _canonical(getattr(obj, f.name), out)
            out.append(",")
        out.append(")")
    elif isinstance(obj, (tuple, list)):
        out.append("[")
        for item in obj:
            _canonical(item, out)
            out.append(",")
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for key in sorted(obj, key=repr):
            _canonical(key, out)
            out.append(":")
            _canonical(obj[key], out)
            out.append(",")
        out.append("}")
    elif isinstance(obj, partial):
        out.append("P(")
        _canonical(obj.func, out)
        _canonical(list(obj.args), out)
        _canonical(dict(obj.keywords), out)
        out.append(")")
    elif callable(obj) and hasattr(obj, "__qualname__") and not (
        "<lambda>" in obj.__qualname__ or "<locals>" in obj.__qualname__
    ):
        # Only module-level callables: lambdas and closures have no
        # stable cross-process identity (and would not pickle anyway).
        out.append(f"F{getattr(obj, '__module__', '?')}.{obj.__qualname__}")
    else:
        raise TypeError(
            f"cannot fingerprint {type(obj).__name__!r}: only dataclasses, "
            "primitives, containers, enums, and named callables are supported"
        )


def fingerprint(obj: Any) -> str:
    """A deterministic hex digest of ``obj``, stable across processes.

    Equal values (e.g. two separately constructed but equal
    :class:`InstanceSpec`, :class:`SLO`, or :class:`SyntheticDataset`
    instances) produce equal fingerprints in every interpreter; unlike
    ``hash()`` the digest does not depend on ``PYTHONHASHSEED``.

    Raises:
        TypeError: for objects without a canonical encoding (arbitrary
            class instances, lambdas, open files, ...).
    """
    out: "list[str]" = [_FINGERPRINT_VERSION, "|"]
    _canonical(obj, out)
    return hashlib.sha256("".join(out).encode()).hexdigest()[:24]


def trial_context_fingerprint(
    system_factory: Any,
    dataset: SyntheticDataset,
    slo: SLO,
    num_requests: int,
    seed: int,
    min_duration: float,
) -> str:
    """Cache-context key: everything that determines a trial except rate."""
    return fingerprint(
        ("goodput-trial", system_factory, dataset, slo, num_requests, seed, min_duration)
    )


# ----------------------------------------------------------------------
# Trial cache
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TrialEntry:
    """One memoized trial outcome.

    ``exact`` entries hold the full-simulation attainment and may serve
    any request. Inexact entries come from early-aborted trials: their
    ``attainment`` is an upper bound strictly below ``abort_target``, so
    they may only serve probes that (a) permit aborting and (b) target
    at least ``abort_target`` — any such probe would reach the same
    below-target verdict.
    """

    attainment: float
    exact: bool
    abort_target: "float | None"
    truncated: bool

    def usable_for(self, abort_target: "float | None") -> bool:
        if self.exact:
            return True
        return (
            abort_target is not None
            and self.abort_target is not None
            and abort_target >= self.abort_target
        )


class TrialCache:
    """Deterministic memo of trial outcomes, grouped by trial context.

    Rates are used as exact float keys: the goodput search derives every
    probe rate from the same literals with the same arithmetic, so equal
    probes are bit-identical. Entries are plain picklable values — the
    parallel evaluator ships per-context snapshots to worker processes
    and merges fresh entries back. There is no process-wide instance: a
    placement search given ``trial_cache=None`` starts from a fresh one,
    and callers that want replay across searches pass the same cache to
    each of them.
    """

    def __init__(self) -> None:
        self._contexts: "dict[str, dict[float, TrialEntry]]" = {}

    def snapshot(self, context_fp: str) -> "dict[float, TrialEntry]":
        """A copy of the entries for one context (safe to ship to a worker)."""
        return dict(self._contexts.get(context_fp, ()))

    def merge(self, context_fp: str, entries: "dict[float, TrialEntry]") -> None:
        """Fold a worker's fresh entries back in (exact entries win)."""
        if not entries:
            return
        bucket = self._contexts.setdefault(context_fp, {})
        for rate, entry in entries.items():
            prev = bucket.get(rate)
            if prev is None or not prev.exact:
                bucket[rate] = entry

    @property
    def num_contexts(self) -> int:
        return len(self._contexts)

    @property
    def num_entries(self) -> int:
        return sum(len(b) for b in self._contexts.values())


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

@dataclass
class PlacementSearchStats:
    """Instrumentation of one placement search (Figure 12).

    Attributes:
        configs_evaluated: Candidate configurations considered (memory-
            feasible enumeration size, matching the paper's search space).
        simulation_trials: Rate probes taken by all goodput searches
            (cached probes included — they are replayed, not skipped).
        configs_pruned: Simulations skipped by infeasibility/dominance
            pruning before any trial ran.
        cache_hits: Trials answered from the :class:`TrialCache`.
        cache_misses: Trials actually simulated.
        trials_aborted: Simulated trials stopped early by the SLO
            violation-budget monitor.
        trials_truncated: Trials that hit the event ceiling.
        workers: Worker processes used (1 = in-process serial).
        wall_time_s: Wall-clock seconds spent in the search.
    """

    configs_evaluated: int = 0
    simulation_trials: int = 0
    configs_pruned: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    trials_aborted: int = 0
    trials_truncated: int = 0
    workers: int = 1
    wall_time_s: float = 0.0

    @property
    def cache_hit_rate(self) -> float:
        probes = self.cache_hits + self.cache_misses
        return self.cache_hits / probes if probes else 0.0

    def absorb(self, task_result: "GoodputTaskResult") -> None:
        """Fold one evaluated task's counters in."""
        self.simulation_trials += task_result.result.trials
        self.trials_truncated += task_result.result.truncated_trials
        self.cache_hits += task_result.hits
        self.cache_misses += task_result.misses
        self.trials_aborted += task_result.aborted

    def comparable(self) -> "dict[str, int]":
        """All deterministic counters — everything except wall time.

        Two searches over the same inputs, starting from equal cache
        contents, must agree on this dict for every ``workers`` setting;
        the serial/parallel parity tests assert exactly that.
        """
        return {
            "configs_evaluated": self.configs_evaluated,
            "simulation_trials": self.simulation_trials,
            "configs_pruned": self.configs_pruned,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "trials_aborted": self.trials_aborted,
            "trials_truncated": self.trials_truncated,
        }


# ----------------------------------------------------------------------
# Tasks and the memoizing trial runner
# ----------------------------------------------------------------------

@dataclass
class GoodputTask:
    """One independent goodput search, picklable for worker processes.

    Phase searches (Algorithm 1, and Algorithm 2's phase estimates) and
    joint searches (Algorithm 2's deployment units) share this shape:
    ``system_factory`` builds each trial's system and ``slo`` is the SLO
    its trials are judged by — for a phase search, the masked SLO of
    :func:`repro.core.simulate.phase_trial_setup`. Build tasks with
    :func:`make_task` or :func:`make_phase_task`.
    """

    system_factory: Callable
    dataset: SyntheticDataset
    slo: SLO
    attainment_target: float
    num_requests: int
    seed: int
    min_duration: float
    context_fp: str
    seed_entries: "dict[float, TrialEntry]" = field(default_factory=dict)
    early_abort: bool = True


@dataclass
class GoodputTaskResult:
    """A task's :class:`GoodputResult` plus cache/pruning bookkeeping."""

    result: GoodputResult
    context_fp: str
    new_entries: "dict[float, TrialEntry]"
    hits: int
    misses: int
    aborted: int


class _TrialRunner:
    """``(rate, abort_target) -> TrialOutcome`` with memoization.

    Seeded with the task's cache snapshot; fresh outcomes accumulate in
    ``new_entries`` for the parent process to merge back. Because every
    trial is deterministic, replaying an entry is indistinguishable from
    re-simulating it — which is what makes serial and parallel searches
    byte-identical.
    """

    def __init__(self, task: GoodputTask) -> None:
        self._task = task
        self._entries = dict(task.seed_entries)
        self.new_entries: "dict[float, TrialEntry]" = {}
        self.hits = 0
        self.misses = 0
        self.aborted = 0

    def __call__(self, rate: float, abort_target: "float | None") -> TrialOutcome:
        entry = self._entries.get(rate)
        if entry is not None and entry.usable_for(abort_target):
            self.hits += 1
            return TrialOutcome(
                attainment=entry.attainment,
                aborted=not entry.exact,
                truncated=entry.truncated,
            )
        self.misses += 1
        task = self._task
        outcome = run_attainment_trial(
            task.system_factory, task.dataset, rate, task.slo,
            num_requests=task.num_requests, seed=task.seed,
            min_duration=task.min_duration, abort_target=abort_target,
        )
        if outcome.aborted:
            self.aborted += 1
        new = TrialEntry(
            attainment=outcome.attainment,
            exact=not outcome.aborted,
            abort_target=abort_target if outcome.aborted else None,
            truncated=outcome.truncated,
        )
        prev = self._entries.get(rate)
        if prev is None or not prev.exact:
            self._entries[rate] = new
            self.new_entries[rate] = new
        return outcome


def make_task(
    system_factory: Callable,
    dataset: SyntheticDataset,
    slo: SLO,
    attainment_target: float,
    num_requests: int,
    seed: int,
    min_duration: float,
    cache: TrialCache,
    early_abort: bool = True,
) -> GoodputTask:
    """A goodput search task, seeded with ``cache``'s entries for its context.

    ``system_factory`` must be picklable and fingerprintable — in
    practice a ``functools.partial`` over a module-level function with
    dataclass arguments — and binds everything its trials depend on,
    the fast-kernel switch and the scheduling policies included.
    """
    fp = trial_context_fingerprint(
        system_factory, dataset, slo, num_requests, seed, min_duration
    )
    return GoodputTask(
        system_factory=system_factory, dataset=dataset, slo=slo,
        attainment_target=attainment_target, num_requests=num_requests,
        seed=seed, min_duration=min_duration,
        context_fp=fp, seed_entries=cache.snapshot(fp), early_abort=early_abort,
    )


def make_phase_task(
    kind: str,
    spec: InstanceSpec,
    dataset: SyntheticDataset,
    slo: SLO,
    attainment_target: float,
    num_requests: int,
    seed: int,
    cache: TrialCache,
    early_abort: bool = True,
    fast_kernel: bool = True,
    scheduling: SchedulingConfig = DEFAULT_SCHEDULING,
) -> GoodputTask:
    """The paper's ``simu_prefill``/``simu_decode`` as a search task.

    The task's factory and SLO are :func:`phase_trial_setup`'s pair for
    ``kind`` (the SLO masked to the phase's own bound), and its trials
    span :data:`PHASE_TRIAL_MIN_DURATION`.
    """
    factory, trial_slo = phase_trial_setup(
        kind, spec, slo, fast_kernel=fast_kernel, scheduling=scheduling
    )
    return make_task(
        factory, dataset, trial_slo, attainment_target, num_requests, seed,
        PHASE_TRIAL_MIN_DURATION, cache, early_abort,
    )


def _execute_task(task: GoodputTask) -> GoodputTaskResult:
    """Run one goodput search (in-process or inside a pool worker)."""
    runner = _TrialRunner(task)
    result = max_goodput(
        task.system_factory, task.dataset, task.slo,
        attainment_target=task.attainment_target,
        num_requests=task.num_requests, seed=task.seed,
        min_duration=task.min_duration,
        trial_runner=runner, early_abort=task.early_abort,
    )
    return GoodputTaskResult(
        result=result, context_fp=task.context_fp,
        new_entries=runner.new_entries,
        hits=runner.hits, misses=runner.misses, aborted=runner.aborted,
    )


# ----------------------------------------------------------------------
# Parallel evaluator
# ----------------------------------------------------------------------

class ParallelEvaluator:
    """Fans goodput-search tasks across a process pool.

    With ``workers <= 1`` (or a single task) everything runs in-process
    — no pool is ever created — and because tasks are deterministic and
    mutually independent, the parallel path returns exactly the results
    the serial path would, in the same (submission) order.
    """

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, int(workers or 1))
        self._pool = None

    def run(self, tasks: "list[GoodputTask]") -> "list[GoodputTaskResult]":
        """Evaluate ``tasks``, returning results in submission order."""
        if not tasks:
            return []
        if self.workers <= 1 or len(tasks) == 1:
            return [_execute_task(task) for task in tasks]
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return list(self._pool.map(_execute_task, tasks))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Pruning bounds
# ----------------------------------------------------------------------

def phase_floor_latency(
    kind: str, spec: InstanceSpec, dataset: SyntheticDataset
) -> "float | None":
    """A hard lower bound on the phase metric any request can achieve.

    For prefill: the unloaded execution latency of the shortest possible
    prompt — every request's TTFT is at least its own batch's execution
    time, batches are at least as slow as their cheapest member alone,
    and all latency terms are monotone in batch content. For decode: the
    single-request step latency at the smallest possible context — each
    inter-token gap spans at least one decode step. Returns ``None``
    when the dataset cannot bound its lengths.
    """
    input_min = dataset.input_dist.min_length()
    if input_min is None:
        return None
    coeffs = spec.latency_coeffs
    if kind == "prefill":
        return prefill_times(
            spec.model, spec.config, coeffs, [input_min],
            tp_link=spec.tp_link, pp_link=spec.pp_link,
        ).request_latency
    out_min = dataset.output_dist.min_length()
    if out_min is None or out_min < 2:
        # Requests with a single output token have TPOT == 0 by
        # definition and always meet the TPOT SLO — no sound bound.
        return None
    return decode_times(
        spec.model, spec.config, coeffs, [input_min + 1],
        tp_link=spec.tp_link, pp_link=spec.pp_link,
    ).request_latency


def phase_slo_infeasible(
    kind: str, spec: InstanceSpec, dataset: SyntheticDataset, slo: SLO
) -> bool:
    """True only when the latency model *proves* zero attainment.

    When this holds, every request violates the phase SLO at any arrival
    rate, so the goodput search would return exactly 0.0 — skipping the
    simulation cannot change the placement. Jittered specs are never
    pruned (multiplicative noise below 1.0 could beat the floor).
    """
    if spec.jitter_sigma > 0:
        return False
    floor = phase_floor_latency(kind, spec, dataset)
    if floor is None:
        return False
    bound = slo.ttft if kind == "prefill" else slo.tpot
    return floor > bound


def rate_cap_per_gpu(num_gpus: int) -> float:
    """Trivially sound per-GPU goodput upper bound: the search's rate cap."""
    return RATE_HI_CAP / num_gpus
