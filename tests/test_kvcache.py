"""Tests for the paged KV-cache block manager."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import KVBlockManager, OutOfBlocksError


class TestKVBlockManager:
    def test_allocation_rounds_to_blocks(self):
        kv = KVBlockManager(total_blocks=10, block_size=16)
        kv.allocate(1, 17)  # needs 2 blocks
        assert kv.used_blocks == 2
        assert kv.free_blocks == 8
        assert kv.tokens_of(1) == 17

    def test_exact_block_boundary(self):
        kv = KVBlockManager(total_blocks=4, block_size=16)
        kv.allocate(1, 32)
        assert kv.used_blocks == 2

    def test_out_of_blocks(self):
        kv = KVBlockManager(total_blocks=2, block_size=16)
        with pytest.raises(OutOfBlocksError):
            kv.allocate(1, 33)
        assert kv.used_blocks == 0  # failed allocation leaves no residue

    def test_double_allocate_rejected(self):
        kv = KVBlockManager(total_blocks=10)
        kv.allocate(1, 5)
        with pytest.raises(ValueError):
            kv.allocate(1, 5)

    def test_append_within_block_free(self):
        kv = KVBlockManager(total_blocks=10, block_size=16)
        kv.allocate(1, 10)
        kv.append(1, 5)
        assert kv.used_blocks == 1
        kv.append(1, 2)  # crosses into a second block
        assert kv.used_blocks == 2
        assert kv.tokens_of(1) == 17

    def test_append_unknown_request(self):
        kv = KVBlockManager(total_blocks=10)
        with pytest.raises(KeyError):
            kv.append(42)

    def test_append_out_of_blocks(self):
        kv = KVBlockManager(total_blocks=1, block_size=4)
        kv.allocate(1, 4)
        with pytest.raises(OutOfBlocksError):
            kv.append(1)

    def test_can_append_semantics(self):
        kv = KVBlockManager(total_blocks=1, block_size=4)
        kv.allocate(1, 3)
        assert kv.can_append(1)       # still room in the block
        kv.append(1)
        assert not kv.can_append(1)   # next token needs a new block
        assert not kv.can_append(99)  # unknown request

    def test_free_is_idempotent(self):
        kv = KVBlockManager(total_blocks=10, block_size=16)
        kv.allocate(1, 20)
        assert kv.free(1) == 2
        assert kv.free(1) == 0
        assert kv.used_blocks == 0

    def test_free_enables_reuse(self):
        kv = KVBlockManager(total_blocks=2, block_size=16)
        kv.allocate(1, 32)
        assert not kv.can_allocate(1)
        kv.free(1)
        kv.allocate(2, 32)
        assert kv.tokens_of(2) == 32

    def test_utilization(self):
        kv = KVBlockManager(total_blocks=4, block_size=16)
        assert kv.utilization == 0.0
        kv.allocate(1, 32)
        assert kv.utilization == 0.5
        empty = KVBlockManager(total_blocks=0)
        assert empty.utilization == 1.0

    def test_holders_ordering(self):
        kv = KVBlockManager(total_blocks=10)
        kv.allocate(3, 1)
        kv.allocate(1, 1)
        kv.allocate(2, 1)
        assert kv.holders() == [3, 1, 2]

    def test_conservation_invariant(self):
        kv = KVBlockManager(total_blocks=100, block_size=8)
        for i in range(10):
            kv.allocate(i, 8 * (i + 1))
        for i in range(0, 10, 2):
            kv.free(i)
        assert kv.used_blocks + kv.free_blocks == kv.total_blocks
        assert kv.used_blocks == sum(i + 1 for i in range(1, 10, 2))

    def test_invalid_constructions(self):
        with pytest.raises(ValueError):
            KVBlockManager(total_blocks=-1)
        with pytest.raises(ValueError):
            KVBlockManager(total_blocks=1, block_size=0)


# ----------------------------------------------------------------------
# The growth group against a manager that only appends per request.
# ----------------------------------------------------------------------
_IDS = range(4)
_OPS = ("allocate", "join", "leave", "grow", "query", "append", "can_append",
        "free")


@st.composite
def _scenarios(draw):
    """A small pool and operations whose token counts span a few blocks,
    started from allocations and joins so that the group is seldom empty."""
    block_size = draw(st.sampled_from([1, 2, 16]))
    total_blocks = draw(st.integers(min_value=0, max_value=24))
    tokens = st.integers(min_value=0, max_value=3 * block_size + 1)
    start = [("allocate", rid, draw(tokens)) for rid in _IDS]
    start += [("join", rid, 0) for rid in draw(st.sets(st.sampled_from(_IDS)))]
    ops = draw(st.lists(
        st.tuples(st.sampled_from(_OPS), st.sampled_from(_IDS), tokens),
        min_size=1, max_size=60,
    ))
    return block_size, total_blocks, start + ops


def _extra_blocks(kv, members, growth):
    """Blocks that growing every member by ``growth`` takes, per request."""
    size = kv.block_size
    return sum(
        -(-(kv.tokens_of(m) + growth) // size) - -(-kv.tokens_of(m) // size)
        for m in members
    )


def _outcome(fn, *args):
    """``fn``'s return value, or the type of the error it raised."""
    try:
        return fn(*args)
    except (OutOfBlocksError, KeyError, ValueError) as exc:
        return type(exc)


class TestGrowthGroup:
    @given(scenario=_scenarios())
    @settings(max_examples=400, deadline=None)
    def test_matches_per_request_appends(self, scenario):
        """Every read, return value and raised error equals the model's
        after every operation: the model keeps members outside the
        manager and grows them with one ``append`` each."""
        block_size, total_blocks, ops = scenario
        kv = KVBlockManager(total_blocks, block_size)
        model = KVBlockManager(total_blocks, block_size)
        members: "set[int]" = set()

        def grow(amount):
            if _extra_blocks(model, members, amount) > model.free_blocks:
                raise OutOfBlocksError
            for m in members:
                model.append(m, amount)

        for op, rid, amount in ops:
            if op == "allocate":
                got = _outcome(kv.allocate, rid, amount)
                want = _outcome(model.allocate, rid, amount)
            elif op == "join":
                got = _outcome(kv.join_group, rid)
                want = (KeyError if rid not in model.holders()
                        else ValueError if rid in members else None)
                if want is None:
                    members.add(rid)
            elif op == "leave":
                got = _outcome(kv.leave_group, rid)
                want = (KeyError if rid not in model.holders()
                        else None if rid in members else ValueError)
                members.discard(rid)
            elif op == "grow":
                got = _outcome(kv.grow_group, amount)
                want = _outcome(grow, amount)
            elif op == "query":
                got = kv.max_group_growth(amount)
                want = max(
                    j for j in range(amount + 1)
                    if _extra_blocks(model, members, j) <= model.free_blocks
                )
            elif op == "append":
                got = _outcome(kv.append, rid, amount)
                want = _outcome(model.append, rid, amount)
            elif op == "can_append":
                got = kv.can_append(rid, amount)
                want = model.can_append(rid, amount)
            else:
                got = kv.free(rid)
                want = model.free(rid)
                members.discard(rid)
            assert got == want, (op, rid, amount)
            assert kv.used_blocks == model.used_blocks
            assert kv.free_blocks == model.free_blocks
            assert kv.holders() == model.holders()
            for r in _IDS:
                assert kv.tokens_of(r) == model.tokens_of(r)
                assert kv.can_append(r) == model.can_append(r)
