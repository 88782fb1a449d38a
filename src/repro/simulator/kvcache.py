"""Paged KV-cache block manager (PagedAttention-style, vLLM [27]).

GPU memory left after weights is carved into fixed-size blocks of
``block_size`` token slots. Requests allocate whole blocks; the manager
tracks ownership so preemption and the disaggregated "prefill memory as
queuing buffer" policy (§4.3) can free precisely. Fragmentation is
internal-only (the unused tail of each request's last block), mirroring
PagedAttention's guarantee.

Requests that decode together, each taking one token slot per step,
can join the manager's *growth group* (the colocated running batch,
DESIGN §4h). A member's token count is an offset from one shared growth
counter, and members are counted by the free slots left in their last
block, so growing every member by ``j = q * block_size + r`` tokens
takes ``q`` blocks per member plus one for each member with fewer than
``r`` free slots. :meth:`KVBlockManager.grow_group` and
:meth:`KVBlockManager.max_group_growth` therefore cost O(block_size)
however many members there are, while every per-request read and
update stays exact for members too.
"""

from __future__ import annotations

__all__ = ["KVBlockManager", "OutOfBlocksError"]


class OutOfBlocksError(RuntimeError):
    """Raised when an allocation exceeds the remaining block budget."""


def blocks_needed(num_tokens: int, block_size: int) -> int:
    """Blocks required to hold ``num_tokens`` token slots."""
    return -(-num_tokens // block_size)


class _Allocation:
    """A request's token slots; a group member's count is held as an
    offset from the group's growth counter."""

    __slots__ = ("num_tokens", "grouped")

    def __init__(self, num_tokens: int) -> None:
        self.num_tokens = num_tokens
        self.grouped = False


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
        # The growth group: tokens every member has grown by together,
        # the member count, and members counted by (-offset) % block_size.
        # A member's free slots in its last block are
        # (bucket - growth) % block_size, so the buckets never move as
        # the group grows.
        self._growth = 0
        self._members = 0
        self._buckets = [0] * block_size

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

    def _tokens(self, alloc: _Allocation) -> int:
        if alloc.grouped:
            return alloc.num_tokens + self._growth
        return alloc.num_tokens

    def _append_blocks(self, alloc: _Allocation, num_tokens: int) -> int:
        """Blocks that growing ``alloc`` by ``num_tokens`` takes."""
        tokens = self._tokens(alloc)
        block_size = self.block_size
        return (
            blocks_needed(tokens + num_tokens, block_size)
            - blocks_needed(tokens, block_size)
        )

    def tokens_of(self, request_id: int) -> int:
        """Token slots currently held by a request (0 if none)."""
        alloc = self._allocs.get(request_id)
        return 0 if alloc is None else self._tokens(alloc)

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
        self._allocs[request_id] = _Allocation(num_tokens)
        self._used_blocks += need

    def can_append(self, request_id: int, num_tokens: int = 1) -> bool:
        """Whether growing a request by ``num_tokens`` would succeed."""
        alloc = self._allocs.get(request_id)
        if alloc is None:
            return False
        return self._append_blocks(alloc, num_tokens) <= self.free_blocks

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
        extra = self._append_blocks(alloc, num_tokens)
        if extra > self.free_blocks:
            raise OutOfBlocksError(
                f"request {request_id} needs {extra} more blocks, "
                f"only {self.free_blocks} free"
            )
        if alloc.grouped:
            block_size = self.block_size
            self._buckets[-alloc.num_tokens % block_size] -= 1
            self._buckets[-(alloc.num_tokens + num_tokens) % block_size] += 1
        alloc.num_tokens += num_tokens
        self._used_blocks += extra

    def free(self, request_id: int) -> int:
        """Release a request's blocks; returns the number freed.

        Freeing an unknown request is a no-op returning 0 (idempotent, so
        completion and preemption paths need not coordinate). A group
        member leaves the group.
        """
        alloc = self._allocs.pop(request_id, None)
        if alloc is None:
            return 0
        blocks = blocks_needed(self._tokens(alloc), self.block_size)
        if alloc.grouped:
            self._buckets[-alloc.num_tokens % self.block_size] -= 1
            self._members -= 1
        self._used_blocks -= blocks
        return blocks

    def holders(self) -> "list[int]":
        """Request ids currently holding allocations (insertion order)."""
        return list(self._allocs)

    # ------------------------------------------------------------------
    # The growth group
    # ------------------------------------------------------------------
    def join_group(self, request_id: int) -> None:
        """Make a request's allocation grow with :meth:`grow_group`.

        Raises:
            KeyError: if the request holds no allocation.
            ValueError: if it is already a member.
        """
        alloc = self._allocs[request_id]
        if alloc.grouped:
            raise ValueError(f"request {request_id} is already in the group")
        alloc.num_tokens -= self._growth
        alloc.grouped = True
        self._buckets[-alloc.num_tokens % self.block_size] += 1
        self._members += 1

    def leave_group(self, request_id: int) -> None:
        """Stop growing a member's allocation with the group.

        Raises:
            KeyError: if the request holds no allocation.
            ValueError: if it is not a member.
        """
        alloc = self._allocs[request_id]
        if not alloc.grouped:
            raise ValueError(f"request {request_id} is not in the group")
        self._buckets[-alloc.num_tokens % self.block_size] -= 1
        self._members -= 1
        alloc.num_tokens += self._growth
        alloc.grouped = False

    def _tight_members(self, slots: int) -> int:
        """Members with fewer than ``slots`` (< block_size) free slots."""
        block_size = self.block_size
        buckets = self._buckets
        lo = self._growth % block_size
        hi = lo + slots
        if hi <= block_size:
            return sum(buckets[lo:hi])
        return sum(buckets[lo:]) + sum(buckets[:hi - block_size])

    def grow_group(self, num_tokens: int) -> None:
        """Grow every member's allocation by ``num_tokens`` at once.

        Raises:
            OutOfBlocksError: if the growth does not fit the free pool
                (nothing changes).
        """
        if num_tokens < 0:
            raise ValueError(f"num_tokens must be >= 0, got {num_tokens}")
        full, slots = divmod(num_tokens, self.block_size)
        extra = full * self._members + self._tight_members(slots)
        if extra > self.free_blocks:
            raise OutOfBlocksError(
                f"growing {self._members} requests by {num_tokens} tokens "
                f"needs {extra} blocks, only {self.free_blocks} free"
            )
        self._growth += num_tokens
        self._used_blocks += extra

    def max_group_growth(self, limit: int) -> int:
        """Largest ``j <= limit`` by which every member can grow at once.

        That is, the largest ``j`` whose :meth:`grow_group` fits the
        free pool: the free blocks give every member ``free // members``
        whole blocks, and the rest cover members in order of the free
        slots left in their last block.
        """
        members = self._members
        if members == 0:
            return limit
        block_size = self.block_size
        full, spare = divmod(self.free_blocks, members)
        if limit <= full * block_size:
            return limit  # at most `full` new blocks per member
        buckets = self._buckets
        growth = self._growth
        tight = 0  # members with at most `slots` free slots
        for slots in range(block_size):
            tight += buckets[(growth + slots) % block_size]
            if tight > spare:
                break  # reached by the last bucket, as spare < members
        return min(limit, full * block_size + slots)
