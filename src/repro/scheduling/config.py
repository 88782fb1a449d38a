"""Frozen scheduling configuration threaded through every layer.

One :class:`SchedulingConfig` value describes the full policy triple —
admission order, batch shaping, and cross-instance dispatch — plus the
knobs each policy reads. It is a frozen dataclass so the search layer
can fingerprint it (``repro.core.search._canonical`` iterates dataclass
fields); the default triple reproduces the paper's §4.3 recipe exactly
and is deliberately *omitted* from trial fingerprints so warm
``TrialCache`` entries stay valid across the refactor.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "SchedulingConfig",
    "DEFAULT_SCHEDULING",
    "QUEUE_POLICIES",
    "BATCH_POLICIES",
    "DISPATCH_POLICIES",
]

#: Admission-order policies (§4.3 FCFS default; ``sjf`` is the
#: convoy-effect mitigation the paper defers to future work; ``edf``
#: orders by SLO deadline).
QUEUE_POLICIES = ("fcfs", "sjf", "edf")

#: Batch-formation policies (``token_budget`` is the L_m shaper;
#: ``chunked`` splits oversized prompts across consecutive batches).
BATCH_POLICIES = ("token_budget", "chunked")

#: Cross-instance routing policies (§4.3 shortest-queue default).
DISPATCH_POLICIES = ("least_loaded", "round_robin", "random", "power_of_two")


@dataclass(frozen=True)
class SchedulingConfig:
    """The policy triple plus per-policy knobs.

    Args:
        queue_policy: One of :data:`QUEUE_POLICIES`.
        batch_policy: One of :data:`BATCH_POLICIES`.
        dispatch_policy: One of :data:`DISPATCH_POLICIES`.
        sjf_aging: Tokens of rank credit per second of queue wait under
            ``sjf``; a prompt that waited ``input_len / sjf_aging``
            seconds outranks a fresh zero-length one, bounding
            starvation.
        batch_token_limit: Override for the L_m batch-shaping budget
            (defaults to the profiled saturation length per instance).
        edf_default_deadline: Deadline assumed for a request with no
            explicit ``deadline`` under ``edf``: arrival + this.
    """

    queue_policy: str = "fcfs"
    batch_policy: str = "token_budget"
    dispatch_policy: str = "least_loaded"
    sjf_aging: float = 2000.0
    batch_token_limit: "int | None" = None
    edf_default_deadline: float = 10.0

    def __post_init__(self) -> None:
        if self.queue_policy not in QUEUE_POLICIES:
            raise ValueError(
                f"unknown queue_policy {self.queue_policy!r}; "
                f"expected one of {QUEUE_POLICIES}"
            )
        if self.batch_policy not in BATCH_POLICIES:
            raise ValueError(
                f"unknown batch_policy {self.batch_policy!r}; "
                f"expected one of {BATCH_POLICIES}"
            )
        if self.dispatch_policy not in DISPATCH_POLICIES:
            raise ValueError(
                f"unknown dispatch_policy {self.dispatch_policy!r}; "
                f"expected one of {DISPATCH_POLICIES}"
            )
        if self.sjf_aging < 0:
            raise ValueError(f"sjf_aging must be >= 0, got {self.sjf_aging}")
        if self.batch_token_limit is not None and self.batch_token_limit <= 0:
            raise ValueError(
                f"batch_token_limit must be positive, got {self.batch_token_limit}"
            )
        if self.edf_default_deadline <= 0:
            raise ValueError(
                f"edf_default_deadline must be positive, "
                f"got {self.edf_default_deadline}"
            )

    def is_default(self) -> bool:
        """Whether this is the paper-default triple with default knobs.

        Default configs are dropped from trial fingerprints so the
        refactor never invalidates warm :class:`TrialCache` entries.
        """
        return self == DEFAULT_SCHEDULING


#: The paper's §4.3 recipe: FCFS + L_m token budget + least-loaded.
DEFAULT_SCHEDULING = SchedulingConfig()
