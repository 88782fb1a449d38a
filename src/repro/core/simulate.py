"""Phase-level trials: the paper's ``simu_prefill`` and ``simu_decode``.

Algorithm 1 evaluates each candidate parallel configuration by
simulating the prefill phase and decoding phase *independently*
(``simu_prefill`` / ``simu_decode`` in the paper's pseudocode). A phase
passes its SLO alone — TTFT for prefill, TPOT for decoding — with an
effectively unconstrained partner metric.

:func:`phase_trial_setup` is the one place a phase trial is posed: it
returns the system factory and masked SLO, and
:data:`PHASE_TRIAL_MIN_DURATION` is the trial duration. ``simu_prefill``
(or ``simu_decode``) is :func:`repro.core.goodput.max_goodput` over the
``"prefill"`` (or ``"decode"``) pair with that duration; the search
layer (:func:`repro.core.search.make_phase_task`) runs exactly that
search through its trial cache, so it has no entry point of its own.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

from ..latency.parallel import ParallelismConfig
from ..scheduling.config import DEFAULT_SCHEDULING, SchedulingConfig
from ..serving.phase_only import DecodeOnlySystem, PrefillOnlySystem
from ..simulator.events import Simulation
from ..simulator.instance import InstanceSpec
from ..workload.slos import SLO

__all__ = ["phase_trial_setup", "PHASE_TRIAL_MIN_DURATION"]

#: A bound so loose it never binds — used to isolate one phase's SLO.
_UNBOUNDED = 1e9

#: Arrival span of each phase-level trial; longer than the joint default
#: so steady-state queueing is visible even for a lone fast phase.
PHASE_TRIAL_MIN_DURATION = 45.0


def _prefill_factory(
    spec: InstanceSpec,
    sim: Simulation,
    fast_kernel: bool = True,
    scheduling: SchedulingConfig = DEFAULT_SCHEDULING,
) -> PrefillOnlySystem:
    return PrefillOnlySystem(sim, spec, fast_kernel=fast_kernel, scheduling=scheduling)


def _decode_factory(
    spec: InstanceSpec,
    sim: Simulation,
    fast_kernel: bool = True,
    scheduling: SchedulingConfig = DEFAULT_SCHEDULING,
) -> DecodeOnlySystem:
    return DecodeOnlySystem(sim, spec, fast_kernel=fast_kernel, scheduling=scheduling)


def phase_trial_setup(
    kind: str,
    spec: InstanceSpec,
    slo: SLO,
    fast_kernel: bool = True,
    scheduling: SchedulingConfig = DEFAULT_SCHEDULING,
):
    """The (system factory, masked SLO) pair of one phase-level trial.

    The factory is a picklable ``functools.partial`` over module-level
    functions, so it can cross a process boundary and be fingerprinted
    deterministically. It binds ``fast_kernel`` and ``scheduling``, so
    both enter the fingerprint and the ``TrialCache`` never conflates
    trials run under different policies. Phase-only systems always
    route least-loaded, so the bound config carries the default
    dispatch policy: searches that differ only in dispatch share their
    phase trials.

    Args:
        kind: ``"prefill"`` or ``"decode"``.
        spec: The candidate instance.
        slo: The full application SLO; the partner phase's bound is
            replaced by an unbounded value.
        fast_kernel: Disable to force the per-step reference path (the
            ``--no-fast-kernel`` escape hatch).
        scheduling: Policy configuration the trial systems run.
    """
    scheduling = replace(
        scheduling, dispatch_policy=DEFAULT_SCHEDULING.dispatch_policy
    )
    if kind == "prefill":
        return (
            partial(_prefill_factory, spec, fast_kernel=fast_kernel,
                    scheduling=scheduling),
            SLO(ttft=slo.ttft, tpot=_UNBOUNDED),
        )
    if kind == "decode":
        return (
            partial(_decode_factory, spec, fast_kernel=fast_kernel,
                    scheduling=scheduling),
            SLO(ttft=_UNBOUNDED, tpot=slo.tpot),
        )
    raise ValueError(f"unknown phase kind {kind!r}; expected 'prefill' or 'decode'")


def candidate_configs(
    model_heads: int,
    model_layers: int,
    max_tp: int,
    max_gpus: int,
) -> "list[ParallelismConfig]":
    """All (tp, pp) pairs valid for the model within the GPU budget.

    TP degrees must divide the head count; PP degrees cannot exceed the
    layer count. This is the enumeration loop of Algorithms 1 and 2.
    """
    configs = []
    for tp in range(1, max_tp + 1):
        if model_heads % tp != 0:
            continue
        max_pp = max_gpus // tp
        for pp in range(1, max_pp + 1):
            if pp > model_layers:
                break
            configs.append(ParallelismConfig(tp=tp, pp=pp))
    return configs
