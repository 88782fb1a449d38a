"""Batch-formation (shaping) policies.

A prefill :class:`BatchPolicy` pops work off the (already reordered)
waiting queue into a batch, owning the KV admission decision: a request
enters the batch only once its full prompt's KV blocks are allocated
(§4.3 "prefill memory as queuing buffer"). The policy returns
:class:`PrefillChunk` entries rather than raw states so the ``chunked``
variant can describe partial prompts; under the default
``token_budget`` policy every chunk is whole (``first and final``) and
the formation loop is operation-for-operation identical to the
pre-refactor ``PrefillInstance._form_batch``.

On the decode side the policy only gates admission count
(``max_batch_size`` capping), which :meth:`BatchPolicy.admit_decode`
expresses as a predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, List

from .config import BATCH_POLICIES

if TYPE_CHECKING:  # annotation-only: avoids a package import cycle
    from ..simulator.kvcache import KVBlockManager
    from ..simulator.request import RequestState

__all__ = [
    "PrefillChunk",
    "BatchPolicy",
    "TokenBudgetBatch",
    "ChunkedBatch",
    "make_batch_policy",
]


@dataclass
class PrefillChunk:
    """One batch entry: ``tokens`` of ``state``'s prompt.

    ``first`` marks the chunk that opens the request's exec span;
    ``final`` marks the chunk whose completion finishes the prefill
    (first token, phase transition, completion callback). Whole prompts
    are a single chunk with both flags set.
    """

    state: RequestState
    tokens: int
    first: bool = True
    final: bool = True


class BatchPolicy:
    """Forms prefill batches and caps decode admission."""

    name = ""

    def form_prefill(
        self,
        queue: "Deque[RequestState]",
        kv: KVBlockManager,
        limit: int,
    ) -> "List[PrefillChunk]":
        """Pop a prefix of ``queue`` into a batch within ``limit`` tokens.

        Allocates KV for every admitted request on ``kv``; a request the
        pool cannot hold stays at the head (retry on KV release).
        """
        raise NotImplementedError

    def admit_decode(self, active: int, cap: int) -> bool:
        """Whether the decode loop may admit one more active request."""
        return active < cap

    def reset(self) -> None:
        """Drop partial-progress state (instance failure/teardown)."""


class TokenBudgetBatch(BatchPolicy):
    """§4.3 L_m shaping: batch whole prompts until the budget is hit.

    Requests longer than the budget run alone (the first admit ignores
    the limit, exactly as the pre-refactor loop did).
    """

    name = "token_budget"

    def form_prefill(
        self,
        queue: "Deque[RequestState]",
        kv: KVBlockManager,
        limit: int,
    ) -> "List[PrefillChunk]":
        batch: "List[PrefillChunk]" = []
        total = 0
        while queue:
            head = queue[0]
            need = head.prefill_len
            if batch and total + need > limit:
                break
            if not kv.can_allocate(need):
                break
            kv.allocate(head.request_id, need)
            queue.popleft()
            batch.append(PrefillChunk(state=head, tokens=need))
            total += need
        return batch


class ChunkedBatch(BatchPolicy):
    """Chunked-prefill shaping: split oversized prompts across batches.

    Every batch's token sum is bounded by the budget, including for
    prompts longer than the budget — the head prompt contributes a
    partial chunk filling the remaining room and stays at the queue head
    until its final chunk is issued. KV for the *full* prompt is
    allocated at the first chunk (the cache grows monotonically during
    prefill, so reserving up front keeps admission decisions identical
    to whole-prompt shaping).
    """

    name = "chunked"

    def __init__(self) -> None:
        #: request_id -> prompt tokens already issued in earlier chunks.
        self._progress: "dict[int, int]" = {}

    def form_prefill(
        self,
        queue: "Deque[RequestState]",
        kv: KVBlockManager,
        limit: int,
    ) -> "List[PrefillChunk]":
        batch: "List[PrefillChunk]" = []
        total = 0
        while queue and total < limit:
            head = queue[0]
            need = head.prefill_len
            done = self._progress.get(head.request_id, 0)
            if done == 0:
                if not kv.can_allocate(need):
                    break
                kv.allocate(head.request_id, need)
            take = min(need - done, limit - total)
            first = done == 0
            final = done + take >= need
            batch.append(
                PrefillChunk(state=head, tokens=take, first=first, final=final)
            )
            total += take
            if final:
                self._progress.pop(head.request_id, None)
                queue.popleft()
            else:
                self._progress[head.request_id] = done + take
                break  # partially prefilled prompt keeps the queue head
        return batch

    def reset(self) -> None:
        self._progress.clear()


def make_batch_policy(policy: str) -> BatchPolicy:
    """Build the named batch policy."""
    if policy == "token_budget":
        return TokenBudgetBatch()
    if policy == "chunked":
        return ChunkedBatch()
    raise ValueError(
        f"unknown batch_policy {policy!r}; expected one of {BATCH_POLICIES}"
    )
