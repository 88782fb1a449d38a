"""Frozen scheduling configuration threaded through every layer.

One :class:`SchedulingConfig` value describes the full policy triple —
admission order, batch shaping, and cross-instance dispatch — plus the
batch-shaping budget. It is the only way a policy choice reaches an
instance, a serving system, a placement search or a deployment. It is a
frozen dataclass so the search layer can fingerprint it
(``repro.core.search._canonical`` iterates dataclass fields);
:data:`DEFAULT_SCHEDULING` reproduces the paper's §4.3 recipe exactly.
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
#: orders by deadline, which is the earliest arrival).
QUEUE_POLICIES = ("fcfs", "sjf", "edf")

#: Batch-formation policies (``token_budget`` is the L_m shaper;
#: ``chunked`` splits oversized prompts across consecutive batches).
BATCH_POLICIES = ("token_budget", "chunked")

#: Cross-instance routing policies (§4.3 shortest-queue default).
DISPATCH_POLICIES = ("least_loaded", "round_robin", "random", "power_of_two")


@dataclass(frozen=True)
class SchedulingConfig:
    """The policy triple plus the batch-shaping budget.

    Args:
        queue_policy: One of :data:`QUEUE_POLICIES`.
        batch_policy: One of :data:`BATCH_POLICIES`.
        dispatch_policy: One of :data:`DISPATCH_POLICIES`.
        batch_token_limit: Override for the L_m batch-shaping budget
            (defaults to the profiled saturation length per instance).
    """

    queue_policy: str = "fcfs"
    batch_policy: str = "token_budget"
    dispatch_policy: str = "least_loaded"
    batch_token_limit: "int | None" = None

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
        if self.batch_token_limit is not None and self.batch_token_limit <= 0:
            raise ValueError(
                f"batch_token_limit must be positive, got {self.batch_token_limit}"
            )


#: The paper's §4.3 recipe: FCFS + L_m token budget + least-loaded.
DEFAULT_SCHEDULING = SchedulingConfig()
