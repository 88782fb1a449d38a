"""Admission-order (queue) policies.

A :class:`QueuePolicy` reorders an instance's waiting queue just before
batch formation. FCFS is the paper's §4.3 default and is a strict no-op
(the deque object is returned untouched, so the default path performs
zero extra work and stays bitwise-identical to the pre-refactor code).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque

from .config import QUEUE_POLICIES

if TYPE_CHECKING:  # annotation-only: avoids a package import cycle
    from ..simulator.request import RequestState

__all__ = [
    "SJF_AGING",
    "QueuePolicy",
    "FCFSQueue",
    "SJFQueue",
    "EDFQueue",
    "make_queue_policy",
]

#: Tokens of ``sjf`` rank credit per second of queue wait: a prompt that
#: waited ``input_len / SJF_AGING`` seconds outranks a fresh zero-length
#: one, bounding starvation.
SJF_AGING = 2000.0


class QueuePolicy:
    """Orders waiting requests before each batch-formation pass.

    A partly prefilled request keeps the queue head under every policy:
    it already holds KV for its whole prompt, so a request ordered ahead
    of it could wait forever for the memory it holds.
    """

    name = ""

    def reorder(
        self, queue: Deque[RequestState], now: float, partial: RequestState | None
    ) -> Deque[RequestState]:
        """Return the queue in admission order (may be the same object).

        ``partial`` is the queue's partly prefilled request, if there is
        one: it goes first, and the policy orders the rest.
        """
        raise NotImplementedError


def _sorted_behind(
    queue: Deque[RequestState],
    partial: RequestState | None,
    key: Callable[[RequestState], float],
) -> Deque[RequestState]:
    """``queue`` sorted by ``key`` behind ``partial``; a short one as is."""
    if len(queue) <= 1:
        return queue
    ordered = sorted((s for s in queue if s is not partial), key=key)
    return deque(ordered if partial is None else [partial, *ordered])


class FCFSQueue(QueuePolicy):
    """First-come-first-served (§4.3 default): identity, zero cost.

    Only a colocated preemption victim, pushed to the front, can stand
    ahead of the partial request; it then moves back behind it.
    """

    name = "fcfs"

    def reorder(
        self, queue: Deque[RequestState], now: float, partial: RequestState | None
    ) -> Deque[RequestState]:
        if partial is not None and queue[0] is not partial:
            queue.remove(partial)
            queue.appendleft(partial)
        return queue


class SJFQueue(QueuePolicy):
    """Shortest-prompt-first with wait-time aging.

    Effective rank = prefill length - :data:`SJF_AGING` * wait.
    ``enqueue_stamp`` names the timestamp that marks when the request
    joined this queue ("prefill_enqueue" on the prefill side,
    "decode_enqueue" on the decode side).
    """

    name = "sjf"

    def __init__(self, enqueue_stamp: str) -> None:
        self._stamp = enqueue_stamp

    def reorder(
        self, queue: Deque[RequestState], now: float, partial: RequestState | None
    ) -> Deque[RequestState]:
        stamp = self._stamp
        return _sorted_behind(
            queue,
            partial,
            lambda s: s.prefill_len - SJF_AGING * (now - s.timestamps.get(stamp, now)),
        )


class EDFQueue(QueuePolicy):
    """Earliest-deadline-first, every deadline being arrival + one offset.

    The earliest deadline is thus the earliest arrival: an older request
    that re-enters the queue (a failover victim) goes first. Python's
    sort is stable, so requests that arrived together keep queue order.
    """

    name = "edf"

    def reorder(
        self, queue: Deque[RequestState], now: float, partial: RequestState | None
    ) -> Deque[RequestState]:
        return _sorted_behind(queue, partial, lambda s: s.request.arrival_time)


def make_queue_policy(policy: str, enqueue_stamp: str) -> QueuePolicy:
    """Build the named queue policy (``enqueue_stamp`` as in :class:`SJFQueue`)."""
    if policy == "fcfs":
        return FCFSQueue()
    if policy == "sjf":
        return SJFQueue(enqueue_stamp)
    if policy == "edf":
        return EDFQueue()
    raise ValueError(
        f"unknown queue_policy {policy!r}; expected one of {QUEUE_POLICIES}"
    )
