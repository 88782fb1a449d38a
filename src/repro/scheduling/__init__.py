"""Pluggable scheduling layer: queue, batch-shaping, and dispatch.

DistServe §4.3 hard-codes one scheduling recipe — FCFS admission, L_m
token-budget batch shaping, least-loaded dispatch. This package makes
each axis a policy interface so ablations land in one place instead of
touching every engine:

* :class:`QueuePolicy` — admission order (``fcfs``, ``sjf``, ``edf``)
* :class:`BatchPolicy` — batch formation (``token_budget``, ``chunked``)
* :class:`DispatchPolicy` — cross-instance routing (``least_loaded``,
  ``round_robin``, ``random``, ``power_of_two``)

A single frozen :class:`SchedulingConfig` names the triple plus the
batch budget and is the one way a policy choice travels: through the
instance engines, the serving modes, the placement search (where it
enters every trial fingerprint) and the Placement a search returns
(:class:`~repro.core.config.Placement`), which ``build_system`` deploys.
:data:`DEFAULT_SCHEDULING` is the paper's recipe.
"""

from .batch import (
    BatchPolicy,
    ChunkedBatch,
    PrefillChunk,
    TokenBudgetBatch,
    make_batch_policy,
)
from .config import (
    BATCH_POLICIES,
    DEFAULT_SCHEDULING,
    DISPATCH_POLICIES,
    QUEUE_POLICIES,
    SchedulingConfig,
)
from .dispatch import (
    DispatchPolicy,
    LeastLoadedDispatch,
    PowerOfTwoDispatch,
    RandomDispatch,
    RoundRobinDispatch,
    dispatch_rng,
    make_dispatch_policy,
)
from .queue import EDFQueue, FCFSQueue, QueuePolicy, SJFQueue, make_queue_policy

__all__ = [
    "SchedulingConfig",
    "DEFAULT_SCHEDULING",
    "QUEUE_POLICIES",
    "BATCH_POLICIES",
    "DISPATCH_POLICIES",
    "QueuePolicy",
    "FCFSQueue",
    "SJFQueue",
    "EDFQueue",
    "make_queue_policy",
    "BatchPolicy",
    "TokenBudgetBatch",
    "ChunkedBatch",
    "PrefillChunk",
    "make_batch_policy",
    "DispatchPolicy",
    "LeastLoadedDispatch",
    "RoundRobinDispatch",
    "RandomDispatch",
    "PowerOfTwoDispatch",
    "make_dispatch_policy",
    "dispatch_rng",
]
