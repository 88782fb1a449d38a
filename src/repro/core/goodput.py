"""Goodput search: the maximum rate a system sustains at an SLO target.

"DistServe simply enumerates the placements via binary search and finds
the maximum rate that meets the SLO attainment target with simulation
trials" (§4.1). :func:`max_goodput` implements that search for any
system factory: double the rate from :data:`RATE_LO` until attainment
drops below target (or the rate reaches :data:`RATE_HI_CAP`), then
bisect to the relative :data:`RESOLUTION`. The three are constants: no
caller searches another range, and the search layer's dominance bound
(:func:`repro.core.search.rate_cap_per_gpu`) relies on the cap.

A trial counts SLO verdicts as requests complete: one counter, attached
to the trial's system as its monitor, judges each completion's TTFT and
TPOT, and the system builds no :class:`~repro.simulator.request.RequestRecord`
(DESIGN §4e). The attainment is the one
:func:`repro.analysis.slo.slo_attainment` computes over the records a
system keeps outside a trial, bit for bit.

Two acceleration hooks keep the search cheap without changing its
answers (the search-acceleration layer in :mod:`repro.core.search`
builds on both):

* **Early abort** — the same counter stops a trial as soon as enough
  requests have violated the SLO that the attainment target is
  mathematically unreachable. The aborted trial reports an *upper
  bound* on its true attainment, which is below the target whenever
  the abort fires, so every pass/fail verdict the bisection takes is
  identical to the full simulation's. :func:`max_goodput` only allows
  aborts on probes whose attainment value is compared against the
  target and discarded; the probes whose value surfaces in
  :class:`GoodputResult` always run to completion, so results are
  bit-identical with pruning on or off.
* **Pluggable trial runner** — :func:`max_goodput` routes every trial
  through a ``(rate, abort_target) -> TrialOutcome`` callable, letting
  callers interpose a memoizing cache (see
  :class:`repro.core.search.TrialCache`) without touching the search
  control flow.

A third accelerator lives below this layer entirely: trials built by
:func:`repro.core.simulate.phase_trial_setup` (and the joint factories
of Algorithm 2) default to the fast-forward simulation kernel (DESIGN
§4h) — macro-stepped decode runs and memoized batch latency inside the
simulator. It is bit-identical to the per-step reference path, so this
module never needs to know which one ran; ``fast_kernel=False`` threads
through the same factories as an escape hatch.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..serving.base import ServingSystem, simulate_trace
from ..simulator.events import Simulation
from ..workload.datasets import SyntheticDataset, generate_trace
from ..workload.slos import SLO
from ..workload.trace import Request

__all__ = [
    "GoodputResult",
    "TrialOutcome",
    "max_goodput",
    "run_attainment_trial",
    "min_slo_scale",
]

#: Hard ceiling on event count per trial, guarding unstable configurations.
MAX_EVENTS_PER_TRIAL = 5_000_000

#: Lowest rate :func:`max_goodput` probes, req/s.
RATE_LO = 0.05

#: Cap on the doubling phase of :func:`max_goodput`, req/s — also the
#: basis of the search layer's trivially sound per-GPU goodput upper bound.
RATE_HI_CAP = 512.0

#: Relative resolution at which :func:`max_goodput` stops bisecting.
RESOLUTION = 0.02

#: Type of the injectable per-trial executor: ``(rate, abort_target)``
#: where ``abort_target`` is the attainment target when early abort is
#: permitted for this probe, or ``None`` when the exact value is needed.
TrialRunner = Callable[[float, "float | None"], "TrialOutcome"]


@dataclass(frozen=True)
class GoodputResult:
    """Outcome of a goodput search.

    Attributes:
        goodput: Max sustainable rate, req/s (0.0 if even the lowest
            probed rate misses the target).
        attainment_at_goodput: Measured attainment at that rate.
        trials: Simulation trials executed (rate probes; cached probes
            still count — see ``repro.core.search`` for hit statistics).
        truncated_trials: Trials that hit the per-trial event ceiling
            and were scored with their remaining requests counted as
            violations; a nonzero value flags an unstable configuration
            whose attainment figures are pessimistic bounds, not exact.
    """

    goodput: float
    attainment_at_goodput: float
    trials: int
    truncated_trials: int = 0


@dataclass(frozen=True)
class TrialOutcome:
    """Result of one simulation trial at a fixed rate.

    Attributes:
        attainment: Total SLO attainment — exact when the trial ran to
            completion, an upper bound strictly below the abort target
            when ``aborted`` is set.
        aborted: The trial's SLO counter stopped the simulation because
            the attainment target had become unreachable.
        truncated: The trial hit :data:`MAX_EVENTS_PER_TRIAL` (or the
            caller's ``max_events``) with events still pending; the
            unfinished requests were scored as violations.
    """

    attainment: float
    aborted: bool = False
    truncated: bool = False


class _TrialCounter:
    """Judges each completion against the SLO as it happens.

    A trial's only output is its attainment, so the trial's system keeps
    no records: this counter, attached as its monitor, tallies completions
    that meet both objectives with :func:`repro.analysis.slo.slo_attainment`'s
    ``<=`` comparisons, and stops the simulation once more than
    ``allowed_violations`` completions missed (the attainment target is
    then out of reach). Soundness: only *completed* requests are counted,
    and a completed request's TTFT/TPOT are final, so ``violations``
    never overcounts; the trip condition ``violations > allowed``
    therefore implies the full trial's attainment would be below the
    target too.
    """

    __slots__ = ("_sim", "_ttft", "_tpot", "_allowed", "met", "violations", "tripped")

    def __init__(self, sim: Simulation, slo: SLO, allowed_violations: int) -> None:
        self._sim = sim
        self._ttft = slo.ttft
        self._tpot = slo.tpot
        self._allowed = allowed_violations
        self.met = 0
        self.violations = 0
        self.tripped = False

    def observe_arrival(self, request: Request) -> None:  # SloMonitor protocol
        pass

    def observe_completion(self, ttft: float, tpot: float) -> None:
        if ttft <= self._ttft and tpot <= self._tpot:
            self.met += 1
            return
        self.violations += 1
        if self.violations > self._allowed and not self.tripped:
            self.tripped = True
            self._sim.stop()


def run_attainment_trial(
    system_factory: "Callable[[Simulation], ServingSystem]",
    dataset: SyntheticDataset,
    rate: float,
    slo: SLO,
    num_requests: int = 300,
    seed: int = 0,
    min_duration: float = 20.0,
    abort_target: "float | None" = None,
    max_events: int = MAX_EVENTS_PER_TRIAL,
) -> TrialOutcome:
    """Simulate one trial and return its attainment with abort/ceiling flags.

    Requests that never finish count as violations, so an overloaded
    system scores low rather than hanging the search. The trace is
    lengthened so it spans at least ``min_duration`` seconds of arrivals:
    a short burst at a high rate drains from an empty system without ever
    exposing steady-state queuing, which would make capacity look
    unbounded. Verdicts are counted as requests complete; the attainment
    equals ``slo_attainment(records, slo, num_expected=len(trace)).total``
    over the records the same system would keep outside a trial.

    Args:
        abort_target: When set, the trial stops as soon as completed-
            request violations alone prove attainment must fall below
            this target; the returned attainment is then the best value
            still achievable at the stop point (an upper bound < target).
        max_events: Event ceiling; hitting it with work pending marks the
            outcome ``truncated`` and emits a :class:`RuntimeWarning`.
    """
    rng = np.random.default_rng(seed)
    trace = generate_trace(
        dataset, rate=rate, num_requests=max(num_requests, int(rate * min_duration)),
        rng=rng,
    )
    n = len(trace)
    # attainment >= target needs at least ceil(target * n) requests in
    # SLO, i.e. tolerates at most n - ceil(target * n) violations; without
    # a target no count of violations (at most n) trips the counter.
    allowed = n if abort_target is None else n - math.ceil(abort_target * n)
    sim = Simulation()
    system = system_factory(sim)
    counter = _TrialCounter(sim, slo, allowed)
    system.attach_monitor(counter)
    system._keep_records = False
    result = simulate_trace(system, trace, max_events=max_events)
    if counter.tripped:
        upper_bound = (n - counter.violations) / n
        return TrialOutcome(attainment=upper_bound, aborted=True)
    truncated = len(sim) > 0 and sim.events_processed >= max_events
    if truncated:
        warnings.warn(
            f"goodput trial at rate {rate:.3g} hit the event ceiling "
            f"({max_events} events) with {sim.events_processed} executed and "
            f"{result.unfinished} requests unfinished; scoring the remainder "
            "as SLO violations",
            RuntimeWarning,
            stacklevel=2,
        )
    # Unfinished requests count as violating both objectives.
    attainment = counter.met / n if n else 1.0
    return TrialOutcome(attainment=attainment, truncated=truncated)


def max_goodput(
    system_factory: "Callable[[Simulation], ServingSystem]",
    dataset: SyntheticDataset,
    slo: SLO,
    attainment_target: float = 0.9,
    num_requests: int = 300,
    seed: int = 0,
    min_duration: float = 20.0,
    trial_runner: "TrialRunner | None" = None,
    early_abort: bool = True,
) -> GoodputResult:
    """Binary-search the maximum rate meeting the attainment target.

    Args:
        system_factory: Builds a fresh system for each trial (systems hold
            per-simulation state and cannot be reused). Any scheduling
            policy choice (:mod:`repro.scheduling`) is bound inside the
            factory — this search never inspects it, so memoizing
            runners must fingerprint the factory itself (see
            :func:`repro.core.search.fingerprint`).
        dataset: Workload length distributions.
        slo: TTFT/TPOT objectives.
        attainment_target: Required fraction of requests meeting both SLOs.
        num_requests: Trace length per trial.
        seed: Trace RNG seed — fixed across trials so rate is the only
            variable.
        trial_runner: Optional per-trial executor override, e.g. the
            memoizing runner of :mod:`repro.core.search`; defaults to
            :func:`run_attainment_trial` on ``system_factory``.
        early_abort: Permit trials to stop once the target is provably
            missed. Only probes whose attainment value is discarded after
            a pass/fail comparison may abort, so the returned
            :class:`GoodputResult` is identical either way (only
            ``truncated_trials`` may differ, since an aborted trial can
            stop before reaching the event ceiling).
    """
    if not 0.0 < attainment_target <= 1.0:
        raise ValueError(f"attainment_target must be in (0, 1], got {attainment_target}")

    if trial_runner is None:
        def trial_runner(rate: float, abort_target: "float | None") -> TrialOutcome:
            return run_attainment_trial(
                system_factory, dataset, rate, slo,
                num_requests=num_requests, seed=seed, min_duration=min_duration,
                abort_target=abort_target,
            )

    trials = 0
    truncated = 0

    def attain(rate: float, allow_abort: bool = True) -> float:
        nonlocal trials, truncated
        trials += 1
        abort_target = attainment_target if (allow_abort and early_abort) else None
        outcome = trial_runner(rate, abort_target)
        truncated += outcome.truncated
        return outcome.attainment

    # The first probe's attainment surfaces in the result when it fails,
    # so it must be exact — no abort permitted.
    lo_att = attain(RATE_LO, allow_abort=False)
    if lo_att < attainment_target:
        return GoodputResult(
            goodput=0.0, attainment_at_goodput=lo_att,
            trials=trials, truncated_trials=truncated,
        )

    # Exponential expansion: find the first failing rate.
    lo, hi = RATE_LO, RATE_LO
    lo_att_best = lo_att
    while hi < RATE_HI_CAP:
        hi = min(lo * 2.0, RATE_HI_CAP)
        att = attain(hi)
        if att < attainment_target:
            break
        lo, lo_att_best = hi, att
        if hi >= RATE_HI_CAP:
            return GoodputResult(
                goodput=RATE_HI_CAP, attainment_at_goodput=att,
                trials=trials, truncated_trials=truncated,
            )

    # Bisection between the last passing and first failing rates.
    while hi - lo > RESOLUTION * max(lo, 1.0):
        mid = (lo + hi) / 2.0
        att = attain(mid)
        if att >= attainment_target:
            lo, lo_att_best = mid, att
        else:
            hi = mid
    return GoodputResult(
        goodput=lo, attainment_at_goodput=lo_att_best,
        trials=trials, truncated_trials=truncated,
    )


def min_slo_scale(
    system_factory: "Callable[[Simulation], ServingSystem]",
    dataset: SyntheticDataset,
    base_slo: SLO,
    rate: float,
    attainment_target: float = 0.9,
    num_requests: int = 300,
    seed: int = 0,
    scale_lo: float = 0.05,
    scale_hi: float = 4.0,
    resolution: float = 0.02,
    min_duration: float = 20.0,
    early_abort: bool = True,
) -> "tuple[float, int]":
    """The most stringent SLO scale a system withstands at a fixed rate.

    Figure 8's second row: both of ``base_slo``'s bounds are multiplied
    by a scale factor and the system must keep ``attainment_target``.
    Smaller is better ("DistServe can achieve 1.4x-1.8x more stringent
    SLO than vLLM", §6.2). Every probe is consumed as a pass/fail
    verdict, so early abort is always sound here.

    Returns:
        ``(scale, trials)`` — the minimal passing scale (``inf`` if even
        ``scale_hi`` fails; ``scale_lo`` if everything passes).
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if not 0 < scale_lo < scale_hi:
        raise ValueError(f"need 0 < scale_lo < scale_hi, got {scale_lo}, {scale_hi}")

    trials = 0

    def passes(scale: float) -> bool:
        nonlocal trials
        trials += 1
        outcome = run_attainment_trial(
            system_factory, dataset, rate, base_slo.scaled(scale),
            num_requests=num_requests, seed=seed, min_duration=min_duration,
            abort_target=attainment_target if early_abort else None,
        )
        return outcome.attainment >= attainment_target

    if not passes(scale_hi):
        return float("inf"), trials
    if passes(scale_lo):
        return scale_lo, trials
    lo, hi = scale_lo, scale_hi  # lo fails, hi passes
    while hi - lo > resolution * hi:
        mid = (lo + hi) / 2.0
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi, trials
