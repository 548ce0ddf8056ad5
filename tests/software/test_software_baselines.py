"""Tests for the software baseline models: privatization, SNZI, Refcache."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.commutative import CommutativeOp
from repro.sim.access import AccessType, MemoryAccess
from repro.sim.columnar import (
    ACCESS_DTYPE,
    CODE_ACCESS_TYPE,
    CODE_OP,
    ColumnBuilder,
    pack_accesses,
)
from repro.software.privatization import (
    PrivatizationLevel,
    PrivatizedReductionBuilder,
    PrivatizedReductionPlan,
    socket_of_core,
)
from repro.software.refcache import RefcacheConfig, RefcacheThreadCache
from repro.software.snzi import SnziTree
from repro.workloads.base import AddressMap


SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src")


@pytest.mark.parametrize(
    "module", ["repro.software", "repro.software.privatization", "repro.software.snzi"]
)
def test_baseline_imports_before_any_workload(module):
    """The workloads import the baselines, so a baseline imported first
    must not import the workloads back (a circular import)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr


def _types(columns):
    """The access type of each record of a packed column."""
    return [CODE_ACCESS_TYPE[code] for code in columns["type_code"].tolist()]


class TestPrivatization:
    def _plan(self, level, n_replicas):
        return PrivatizedReductionPlan(
            n_elements=8,
            element_bytes=8,
            op=CommutativeOp.ADD_I64,
            level=level,
            n_replicas=n_replicas,
        )

    def test_footprint_scales_with_replicas(self):
        core_plan = self._plan(PrivatizationLevel.CORE, 16)
        socket_plan = self._plan(PrivatizationLevel.SOCKET, 2)
        assert core_plan.footprint_bytes == 8 * 8 * 16
        assert core_plan.footprint_bytes > socket_plan.footprint_bytes

    def test_core_level_update_phase_uses_plain_accesses(self):
        plan = self._plan(PrivatizationLevel.CORE, 2)
        builder = PrivatizedReductionBuilder(plan, AddressMap())
        columns = builder.update_phase(0, [1, 2], values=1, think=5)
        assert columns.dtype == ACCESS_DTYPE
        assert _types(columns) == [AccessType.LOAD, AccessType.STORE] * 2
        # Each update is a load and a store of the same replica element.
        assert columns["address"][0] == columns["address"][1]
        assert columns["compute_gap"].tolist() == [5, 1, 5, 1]

    def test_socket_level_update_phase_uses_atomics(self):
        plan = self._plan(PrivatizationLevel.SOCKET, 2)
        builder = PrivatizedReductionBuilder(
            plan, AddressMap(), replica_of_core=socket_of_core(2)
        )
        columns = builder.update_phase(0, [1], values=1, think=5)
        assert _types(columns) == [AccessType.ATOMIC_RMW]
        assert CODE_OP[int(columns["type_code"][0])] is CommutativeOp.ADD_I64
        assert columns["value_delta"].tolist() == [1]

    def test_socket_level_operands_pack_like_objects(self):
        for op, values in ((CommutativeOp.ADD_I64, [3, -2]), (CommutativeOp.ADD_F64, [0.5, -1.25])):
            plan = PrivatizedReductionPlan(
                n_elements=8,
                element_bytes=8,
                op=op,
                level=PrivatizationLevel.SOCKET,
                n_replicas=1,
            )
            builder = PrivatizedReductionBuilder(
                plan, AddressMap(), replica_of_core=socket_of_core(2)
            )
            columns = builder.update_phase(1, [4, 6], values=np.array(values), think=[2, 3])
            base = builder._replica_base(0)
            expected = pack_accesses(
                [
                    MemoryAccess.atomic(base + 4 * 8, op, values[0], think=2),
                    MemoryAccess.atomic(base + 6 * 8, op, values[1], think=3),
                ]
            )
            assert np.array_equal(columns, expected)

    def test_empty_update_phase_allocates_no_replica(self):
        addresses = AddressMap()
        builder = PrivatizedReductionBuilder(self._plan(PrivatizationLevel.CORE, 2), addresses)
        assert len(builder.update_phase(0, [])) == 0
        assert not addresses._regions

    def test_replicas_have_disjoint_addresses(self):
        plan = self._plan(PrivatizationLevel.CORE, 2)
        builder = PrivatizedReductionBuilder(plan, AddressMap())
        core0 = set(builder.update_phase(0, range(8))["address"].tolist())
        core1 = set(builder.update_phase(1, range(8))["address"].tolist())
        assert not core0 & core1

    def test_reduction_phase_reads_every_replica(self):
        plan = self._plan(PrivatizationLevel.CORE, 4)
        builder = PrivatizedReductionBuilder(plan, AddressMap())
        columns = builder.reduction_phase(0, n_cores=4)
        types = _types(columns)
        # Core 0 owns 2 of the 8 elements: 2 * 4 replica reads + 2 stores,
        # each element's replica loads followed by its store.
        assert types == ([AccessType.LOAD] * 4 + [AccessType.STORE]) * 2
        assert len(set(columns["address"].tolist())) == 10

    def test_socket_of_core(self):
        socket = socket_of_core(16)
        assert socket(0) == 0
        assert socket(15) == 0
        assert socket(16) == 1


def _appended(emit):
    """The packed columns one SNZI or Refcache operation appends."""
    builder = ColumnBuilder()
    emit(builder)
    return builder.build()


class TestSnzi:
    def test_arrive_depart_track_surplus(self):
        tree = SnziTree(AddressMap(), object_id=0, n_threads=4)
        first = _appended(lambda b: tree.arrive(b, 0))
        assert len(first) >= 2  # leaf plus propagation to ancestors
        second = _appended(lambda b: tree.arrive(b, 0))
        assert len(second) == 1  # surplus already positive, no propagation
        depart = _appended(lambda b: tree.depart(b, 0))
        assert len(depart) == 1
        last = _appended(lambda b: tree.depart(b, 0))
        assert len(last) >= 2  # surplus hits zero, propagates upward
        assert set(_types(first)) == {AccessType.ATOMIC_RMW}
        assert first["value_delta"].tolist() == [1] * len(first)
        assert last["value_delta"].tolist() == [-1] * len(last)

    def test_propagation_climbs_leaf_to_root(self):
        tree = SnziTree(AddressMap(), object_id=0, n_threads=8)
        path = _appended(lambda b: tree.arrive(b, 5))
        # Eight leaves: leaf, two intermediate levels, root.
        assert len(path) == 4
        assert path["address"][-1] == tree._node_address(0)
        # A sibling's arrival stops where the first one's surplus is held.
        sibling = _appended(lambda b: tree.arrive(b, 4))
        assert len(sibling) == 2

    def test_think_precedes_first_node_update(self):
        tree = SnziTree(AddressMap(), object_id=0, n_threads=4)
        path = _appended(lambda b: tree.arrive(b, 0, 15))
        assert path["compute_gap"].tolist() == [19] + [4] * (len(path) - 1)

    def test_query_reads_root_only(self):
        tree = SnziTree(AddressMap(), object_id=0, n_threads=8)
        query = _appended(lambda b: tree.query(b, 3))
        assert _types(query) == [AccessType.LOAD]
        assert query["address"][0] == tree._node_address(0)

    def test_threads_use_distinct_leaves(self):
        tree = SnziTree(AddressMap(), object_id=0, n_threads=4)
        leaf0 = _appended(lambda b: tree.arrive(b, 0))["address"][0]
        leaf1 = _appended(lambda b: tree.arrive(b, 1))["address"][0]
        assert leaf0 != leaf1

    def test_footprint_grows_with_threads(self):
        small = SnziTree(AddressMap(), 0, n_threads=2)
        large = SnziTree(AddressMap(), 0, n_threads=16)
        assert large.footprint_bytes > small.footprint_bytes


class TestRefcache:
    def test_update_probes_hash_slot(self):
        cache = RefcacheThreadCache(AddressMap(), thread_id=0)
        columns = _appended(lambda b: cache.update(b, counter_id=7, delta=1))
        assert _types(columns) == [AccessType.LOAD, AccessType.STORE]
        assert columns["address"][0] == columns["address"][1]
        assert cache.deltas[7] == 1

    def test_updates_coalesce_in_cache(self):
        cache = RefcacheThreadCache(AddressMap(), thread_id=0)
        builder = ColumnBuilder()
        cache.update(builder, 7, 1)
        cache.update(builder, 7, 1)
        cache.update(builder, 7, -1)
        assert cache.deltas[7] == 1

    def test_flush_applies_deltas_with_atomics_in_counter_order_and_clears(self):
        addresses = AddressMap()
        cache = RefcacheThreadCache(addresses, thread_id=0)
        builder = ColumnBuilder()
        cache.update(builder, 2, -1)
        cache.update(builder, 1, 1)
        counter = lambda c: addresses.element("counters", c, 8)  # noqa: E731
        flush = _appended(lambda b: cache.flush(b, counter))
        assert _types(flush) == [AccessType.LOAD, AccessType.ATOMIC_RMW] * 2
        assert flush["address"][1::2].tolist() == [counter(1), counter(2)]
        assert flush["value_delta"][1::2].tolist() == [1, -1]
        assert not cache.deltas

    def test_footprint(self):
        cache = RefcacheThreadCache(AddressMap(), 0, RefcacheConfig(n_slots=128, slot_bytes=16))
        assert cache.footprint_bytes == 2048
