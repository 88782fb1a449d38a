"""Paged KV-cache block manager (PagedAttention-style, vLLM [27]).

GPU memory left after weights is carved into fixed-size blocks of
``block_size`` token slots. Requests allocate whole blocks; the manager
tracks ownership so preemption and the disaggregated "prefill memory as
queuing buffer" policy (§4.3) can free precisely. Fragmentation is
internal-only (the unused tail of each request's last block), mirroring
PagedAttention's guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["KVBlockManager", "OutOfBlocksError"]


class OutOfBlocksError(RuntimeError):
    """Raised when an allocation exceeds the remaining block budget."""


def blocks_needed(num_tokens: int, block_size: int) -> int:
    """Blocks required to hold ``num_tokens`` token slots."""
    return -(-num_tokens // block_size)


@dataclass
class _Allocation:
    num_tokens: int
    num_blocks: int


class KVBlockManager:
    """Fixed-pool paged allocator keyed by request id.

    Attributes:
        total_blocks: Pool capacity in blocks.
        block_size: Token slots per block (16 in vLLM's default).
    """

    def __init__(self, total_blocks: int, block_size: int = 16) -> None:
        if total_blocks < 0:
            raise ValueError(f"total_blocks must be >= 0, got {total_blocks}")
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        self.total_blocks = total_blocks
        self.block_size = block_size
        self._allocs: "dict[int, _Allocation]" = {}
        self._used_blocks = 0

    # ------------------------------------------------------------------
    @property
    def used_blocks(self) -> int:
        return self._used_blocks

    @property
    def free_blocks(self) -> int:
        return self.total_blocks - self._used_blocks

    @property
    def utilization(self) -> float:
        """Fraction of the pool currently allocated."""
        if self.total_blocks == 0:
            return 1.0
        return self._used_blocks / self.total_blocks

    def tokens_of(self, request_id: int) -> int:
        """Token slots currently held by a request (0 if none)."""
        alloc = self._allocs.get(request_id)
        return alloc.num_tokens if alloc else 0

    # ------------------------------------------------------------------
    def can_allocate(self, num_tokens: int) -> bool:
        """Whether a fresh allocation of ``num_tokens`` would succeed."""
        return blocks_needed(num_tokens, self.block_size) <= self.free_blocks

    def allocate(self, request_id: int, num_tokens: int) -> None:
        """Allocate the initial blocks for a request's ``num_tokens``.

        Raises:
            OutOfBlocksError: if the pool lacks space.
            ValueError: if the request already holds an allocation.
        """
        if request_id in self._allocs:
            raise ValueError(f"request {request_id} already holds an allocation")
        if num_tokens < 0:
            raise ValueError(f"num_tokens must be >= 0, got {num_tokens}")
        need = blocks_needed(num_tokens, self.block_size)
        if need > self.free_blocks:
            raise OutOfBlocksError(
                f"need {need} blocks for request {request_id}, "
                f"only {self.free_blocks} free"
            )
        self._allocs[request_id] = _Allocation(num_tokens=num_tokens, num_blocks=need)
        self._used_blocks += need

    def can_append(self, request_id: int, num_tokens: int = 1) -> bool:
        """Whether growing a request by ``num_tokens`` would succeed."""
        alloc = self._allocs.get(request_id)
        if alloc is None:
            return False
        need = blocks_needed(alloc.num_tokens + num_tokens, self.block_size)
        return need - alloc.num_blocks <= self.free_blocks

    def append(self, request_id: int, num_tokens: int = 1) -> None:
        """Grow a request's allocation by ``num_tokens`` (decode step).

        Raises:
            KeyError: if the request holds no allocation.
            OutOfBlocksError: if a new block is needed but none is free.
        """
        alloc = self._allocs.get(request_id)
        if alloc is None:
            raise KeyError(f"request {request_id} holds no allocation")
        if num_tokens < 0:
            raise ValueError(f"num_tokens must be >= 0, got {num_tokens}")
        new_total = alloc.num_tokens + num_tokens
        need = blocks_needed(new_total, self.block_size)
        extra = need - alloc.num_blocks
        if extra > self.free_blocks:
            raise OutOfBlocksError(
                f"request {request_id} needs {extra} more blocks, "
                f"only {self.free_blocks} free"
            )
        alloc.num_tokens = new_total
        alloc.num_blocks = need
        self._used_blocks += extra

    def free(self, request_id: int) -> int:
        """Release a request's blocks; returns the number freed.

        Freeing an unknown request is a no-op returning 0 (idempotent, so
        completion and preemption paths need not coordinate).
        """
        alloc = self._allocs.pop(request_id, None)
        if alloc is None:
            return 0
        self._used_blocks -= alloc.num_blocks
        return alloc.num_blocks

    def holders(self) -> "list[int]":
        """Request ids currently holding allocations (insertion order)."""
        return list(self._allocs)
