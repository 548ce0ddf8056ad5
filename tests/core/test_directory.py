"""Unit tests for the coherence directory."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.commutative import ALL_OPS, CommutativeOp
from repro.core.directory import Directory, DirectoryEntry
from repro.core.states import LineMode


class TestDirectoryEntry:
    def test_initial_entry_is_uncached_and_consistent(self):
        entry = DirectoryEntry(line_addr=0x40)
        assert entry.mode is LineMode.UNCACHED
        assert entry.is_consistent()

    def test_exclusive_owner_helper(self):
        entry = DirectoryEntry(line_addr=0, mode=LineMode.EXCLUSIVE, sharers={3})
        assert entry.exclusive_owner() == 3
        entry = DirectoryEntry(line_addr=0, mode=LineMode.READ_ONLY, sharers={1, 2})
        assert entry.exclusive_owner() is None

    def test_inconsistent_entries_detected(self):
        bad = DirectoryEntry(line_addr=0, mode=LineMode.EXCLUSIVE, sharers={1, 2})
        assert not bad.is_consistent()
        bad = DirectoryEntry(line_addr=0, mode=LineMode.UPDATE_ONLY, sharers={1})
        assert not bad.is_consistent()  # update-only requires an op


class TestDirectoryTransitions:
    def test_grant_exclusive(self):
        directory = Directory()
        entry = directory.grant_exclusive(0x10, cache_id=2)
        assert entry.mode is LineMode.EXCLUSIVE
        assert entry.sharers == {2}
        directory.check_invariants()

    def test_grant_shared_accumulates_readers(self):
        directory = Directory()
        directory.grant_shared(0x10, 0)
        entry = directory.grant_shared(0x10, 1)
        assert entry.mode is LineMode.READ_ONLY
        assert entry.sharers == {0, 1}
        directory.check_invariants()

    def test_grant_shared_conflicts_with_exclusive(self):
        directory = Directory()
        directory.grant_exclusive(0x10, 0)
        with pytest.raises(ValueError):
            directory.grant_shared(0x10, 1)

    def test_grant_update_only_accumulates_updaters(self):
        directory = Directory()
        directory.grant_update_only(0x10, 0, CommutativeOp.ADD_I64)
        entry = directory.grant_update_only(0x10, 1, CommutativeOp.ADD_I64)
        assert entry.mode is LineMode.UPDATE_ONLY
        assert entry.sharers == {0, 1}
        assert entry.op is CommutativeOp.ADD_I64
        directory.check_invariants()

    def test_update_only_rejects_mixed_op_types(self):
        directory = Directory()
        directory.grant_update_only(0x10, 0, CommutativeOp.ADD_I64)
        with pytest.raises(ValueError):
            directory.grant_update_only(0x10, 1, CommutativeOp.OR_64)

    def test_update_only_rejects_while_other_readers_present(self):
        directory = Directory()
        directory.grant_shared(0x10, 0)
        directory.grant_shared(0x10, 1)
        with pytest.raises(ValueError):
            directory.grant_update_only(0x10, 2, CommutativeOp.ADD_I64)

    def test_remove_sharer_returns_to_uncached(self):
        directory = Directory()
        directory.grant_shared(0x10, 0)
        directory.grant_shared(0x10, 1)
        directory.remove_sharer(0x10, 0)
        entry = directory.remove_sharer(0x10, 1)
        assert entry.mode is LineMode.UNCACHED
        directory.drop_if_uncached(0x10)
        assert directory.peek(0x10) is None

    def test_clear_all_sharers(self):
        directory = Directory()
        directory.grant_update_only(0x10, 0, CommutativeOp.ADD_I64)
        directory.grant_update_only(0x10, 1, CommutativeOp.ADD_I64)
        invalidated = directory.clear_all_sharers(0x10)
        assert invalidated == {0, 1}
        assert directory.entry(0x10).mode is LineMode.UNCACHED

    def test_storage_overhead_matches_paper(self):
        directory = Directory()
        # 16 caches, 8 ops: sharer vector (16) + exclusive bit + 4-bit type.
        assert directory.storage_bits_per_line(n_caches=16, n_ops=8) == 16 + 1 + 4

    def test_len_counts_active_entries(self):
        directory = Directory()
        directory.grant_shared(0x10, 0)
        directory.grant_exclusive(0x20, 1)
        assert len(directory) == 2

    def test_remove_sharer_of_foreign_cache_in_exclusive_mode_raises(self):
        # Evicting a cache that never held an exclusive line is an engine
        # bug; the owner must stay recorded rather than be silently kept.
        directory = Directory()
        directory.grant_exclusive(0x10, 2)
        with pytest.raises(ValueError, match="owner 2 still holds the line"):
            directory.remove_sharer(0x10, 5)
        assert directory.entry(0x10).exclusive_owner() == 2

    def test_check_invariants_catches_a_corrupted_entry(self):
        directory = Directory()
        directory.grant_shared(0x10, 0)
        directory.grant_exclusive(0x20, 1)
        directory.check_invariants()
        directory.entry(0x20).sharers.add(3)  # two owners of one exclusive line
        with pytest.raises(AssertionError, match="inconsistent directory entry"):
            directory.check_invariants()


N_CACHES = 8
N_LINES = 6

#: One random transaction: (kind, line, cache, op index, busy time).  Kinds
#: are read against the line's *current* mode so that only legal protocol
#: transitions are issued, the same guarantee the engines give.
transactions = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=N_LINES - 1),
        st.integers(min_value=0, max_value=N_CACHES - 1),
        st.integers(min_value=0, max_value=len(ALL_OPS) - 1),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    ),
    min_size=1,
    max_size=120,
)


def _apply(directory, model, kind, line_addr, cache_id, op_index, busy):
    """Issue one legal transaction on ``directory`` and on the reference
    ``model`` (``{line: (mode, sharers, op)}``, uncached lines absent)."""
    mode, sharers, op = model.get(line_addr, (LineMode.UNCACHED, frozenset(), None))
    if kind == 0:  # demand write: take the line exclusively
        directory.clear_all_sharers(line_addr)
        directory.grant_exclusive(line_addr, cache_id)
        model[line_addr] = (LineMode.EXCLUSIVE, frozenset({cache_id}), None)
    elif kind == 1:  # demand read: join the reader set, downgrading others
        if mode not in (LineMode.UNCACHED, LineMode.READ_ONLY):
            directory.clear_all_sharers(line_addr)
            sharers = frozenset()
        directory.grant_shared(line_addr, cache_id)
        model[line_addr] = (LineMode.READ_ONLY, sharers | {cache_id}, None)
    elif kind == 2:  # commutative update: join or open the updater set
        new_op = ALL_OPS[op_index]
        if (mode is LineMode.UPDATE_ONLY and op is not new_op) or (
            mode in (LineMode.EXCLUSIVE, LineMode.READ_ONLY) and sharers - {cache_id}
        ):
            directory.clear_all_sharers(line_addr)  # reduction or invalidation
            sharers = frozenset()
        directory.grant_update_only(line_addr, cache_id, new_op)
        model[line_addr] = (LineMode.UPDATE_ONLY, sharers | {cache_id}, new_op)
    elif kind == 3:  # eviction by an actual sharer
        if cache_id in sharers:
            directory.remove_sharer(line_addr, cache_id)
            directory.drop_if_uncached(line_addr)
            sharers = sharers - {cache_id}
            if sharers:
                model[line_addr] = (mode, sharers, op)
            else:
                del model[line_addr]
    elif kind == 4:  # full invalidation of the line
        directory.clear_all_sharers(line_addr)
        directory.drop_if_uncached(line_addr)
        model.pop(line_addr, None)
    else:  # the line's home goes busy serialising a transfer
        directory.entry(line_addr).busy_until = busy
        directory.drop_if_uncached(line_addr)


class TestDirectoryUnderRandomTransactions:
    """Random legal transaction sequences against a reference model."""

    @settings(max_examples=150, deadline=None)
    @given(transactions)
    def test_matches_reference_model_and_stays_consistent(self, sequence):
        directory = Directory()
        model = {}
        for step in sequence:
            _apply(directory, model, *step)
            directory.check_invariants()
            for line_addr in range(N_LINES):
                entry = directory.peek(line_addr)
                if line_addr not in model:
                    assert entry is None, f"uncached line {line_addr} kept an entry"
                    continue
                mode, sharers, op = model[line_addr]
                assert (entry.mode, entry.sharers, entry.op) == (mode, set(sharers), op)
                if mode is LineMode.EXCLUSIVE:
                    assert entry.exclusive_owner() == next(iter(sharers))
        assert len(directory) == len(model)

    @settings(max_examples=100, deadline=None)
    @given(transactions)
    def test_dropped_lines_never_leak_into_fresh_lookups(self, sequence):
        # A line dropped as uncached must come back as a brand-new entry:
        # no sharers, op or busy time from the line's earlier life.
        directory = Directory()
        model = {}
        for step in sequence:
            _apply(directory, model, *step)
        for line_addr in range(N_LINES):
            directory.clear_all_sharers(line_addr)
            directory.drop_if_uncached(line_addr)
        assert len(directory) == 0
        for line_addr in range(N_LINES):
            fresh = directory.entry(line_addr)
            assert fresh == DirectoryEntry(line_addr=line_addr)
