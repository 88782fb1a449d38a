"""Cross-instance dispatch (routing) policies.

§4.3: requests are "dispatched to the prefill instance with the
shortest queue ... followed by dispatch to the least loaded decoding
instance" — :class:`LeastLoadedDispatch`, the default. Round-robin and
random serve the dispatch-policy ablation; power-of-two-choices samples
two instances and routes to the less loaded one, the classic
balls-into-bins result that collapses tail queue depth versus random
at the cost of one extra load probe.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

import numpy as np

from .config import DISPATCH_POLICIES

__all__ = [
    "DispatchPolicy",
    "LeastLoadedDispatch",
    "RoundRobinDispatch",
    "RandomDispatch",
    "PowerOfTwoDispatch",
    "make_dispatch_policy",
    "dispatch_rng",
]

T = TypeVar("T")


class DispatchPolicy:
    """Chooses a target instance for one request."""

    name = ""

    def select(self, instances: "Sequence[T]") -> T:
        """Pick one instance from a non-empty pool."""
        raise NotImplementedError


class LeastLoadedDispatch(DispatchPolicy):
    """Route to the minimum-load instance (ties break by pool order)."""

    name = "least_loaded"

    def __init__(self, load_fn: "Callable[[T], float]") -> None:
        self._load_fn = load_fn

    def select(self, instances: "Sequence[T]") -> T:
        return min(instances, key=self._load_fn)


class RoundRobinDispatch(DispatchPolicy):
    """Cycle through the pool; the modulo keeps the cursor valid even
    when the pool shrinks mid-run (instance failure)."""

    name = "round_robin"

    def __init__(self) -> None:
        self._next = 0

    def select(self, instances: "Sequence[T]") -> T:
        chosen = instances[self._next % len(instances)]
        self._next += 1
        return chosen


class RandomDispatch(DispatchPolicy):
    """Uniform-random routing from the shared seeded generator."""

    name = "random"

    def __init__(self, rng: "np.random.Generator") -> None:
        self._rng = rng

    def select(self, instances: "Sequence[T]") -> T:
        idx = int(self._rng.integers(0, len(instances)))
        return instances[idx]


class PowerOfTwoDispatch(DispatchPolicy):
    """Power-of-two-choices: sample two, keep the less loaded.

    Draws two indices (always exactly two rng calls, so the stream
    stays aligned across runs regardless of load); ties — including the
    two draws landing on the same instance — keep the first draw, which
    makes the choice deterministic given the rng stream.
    """

    name = "power_of_two"

    def __init__(
        self, load_fn: "Callable[[T], float]", rng: "np.random.Generator"
    ) -> None:
        self._load_fn = load_fn
        self._rng = rng

    def select(self, instances: "Sequence[T]") -> T:
        n = len(instances)
        first = instances[int(self._rng.integers(0, n))]
        second = instances[int(self._rng.integers(0, n))]
        if self._load_fn(second) < self._load_fn(first):
            return second
        return first


def make_dispatch_policy(
    policy: str,
    load_fn: "Callable[[T], float]",
    rng: "np.random.Generator | None" = None,
) -> DispatchPolicy:
    """Build the named dispatch policy.

    Raises:
        ValueError: on an unknown policy name, or when ``random`` /
            ``power_of_two`` is requested without an rng.
    """
    if policy not in DISPATCH_POLICIES:
        raise ValueError(
            f"unknown policy {policy!r}; expected one of {DISPATCH_POLICIES}"
        )
    if policy == "least_loaded":
        return LeastLoadedDispatch(load_fn)
    if policy == "round_robin":
        return RoundRobinDispatch()
    if rng is None:
        raise ValueError(f"{policy} dispatch requires an rng")
    if policy == "random":
        return RandomDispatch(rng)
    return PowerOfTwoDispatch(load_fn, rng)


def dispatch_rng(policy: str, seed: int = 0) -> "np.random.Generator | None":
    """The dedicated generator ``random`` and ``power_of_two`` draw from.

    Returns ``None`` for the deterministic policies. Routing never shares
    the trace's generator, so the workload a seed generates does not
    depend on the dispatch policy; and a system factory that calls this
    with the default seed is reproducible from its arguments alone (a
    ``Generator`` object could not be fingerprinted).
    """
    if policy in ("random", "power_of_two"):
        return np.random.default_rng(seed)
    return None
