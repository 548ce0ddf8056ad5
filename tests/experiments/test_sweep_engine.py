"""Unit and integration tests for the declarative sweep engine."""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments import settings, sweep
from repro.experiments import sensitivity_reduction_unit, traffic_reduction
from repro.experiments.runner import main as runner_main
from repro.experiments.sweep import (
    ExecutionContext,
    FuncPoint,
    ResultCache,
    SimPoint,
    SweepSpec,
    TraceCache,
    WorkloadSpec,
    execute,
)
from repro.sim.config import small_test_config, table1_config
from repro.sim.simulator import simulate
from repro.software.privatization import PrivatizationLevel
from repro.workloads import HistogramWorkload, MultiCounterWorkload, UpdateStyle


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    monkeypatch.setattr(settings, "_scale", 0.05)
    monkeypatch.setattr(settings, "_max_cores", 8)
    yield


def hist_factory(style=UpdateStyle.COMMUTATIVE, n_bins=32, n_items=400):
    return HistogramWorkload(n_bins=n_bins, n_items=n_items, update_style=style)


class TestTraceKey:
    def test_same_parameters_same_key(self):
        assert hist_factory().trace_key() == hist_factory().trace_key()

    def test_any_parameter_changes_the_key(self):
        base = hist_factory().trace_key()
        assert hist_factory(n_bins=64).trace_key() != base
        assert hist_factory(style=UpdateStyle.ATOMIC).trace_key() != base
        assert HistogramWorkload(
            n_bins=32, n_items=400, update_style=UpdateStyle.COMMUTATIVE, seed=7
        ).trace_key() != base

    def test_different_classes_never_collide(self):
        counter = MultiCounterWorkload(n_counters=32, updates_per_core=10)
        assert counter.trace_key() != hist_factory().trace_key()

    def test_unkeyable_attribute_makes_key_instance_unique(self):
        first = hist_factory()
        second = hist_factory()
        first.weird = object()
        second.weird = object()
        # Refusing to share is the safe failure mode for unknown parameters.
        assert first.trace_key() != second.trace_key()
        # But the key is stable for one instance, and the uniqueness token
        # survives the other instance being freed (no id() reuse hazard).
        assert first.trace_key() == first.trace_key()
        del second
        third = hist_factory()
        third.weird = object()
        assert first.trace_key() != third.trace_key()

    def test_key_is_hashable_and_address_map_excluded(self):
        workload = hist_factory()
        key = workload.trace_key()
        hash(key)
        assert "addresses" not in dict(key[1])


class TestTraceCache:
    def test_hit_returns_same_object(self):
        cache = TraceCache()
        spec = WorkloadSpec.plain(hist_factory)
        first = cache.get(spec, 4)
        second = cache.get(spec, 4)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_distinct_variants_do_not_share(self):
        cache = TraceCache()
        plain = WorkloadSpec.plain(hist_factory)
        privatized = WorkloadSpec.privatized(hist_factory, PrivatizationLevel.CORE)
        assert cache.get(plain, 4) is not cache.get(privatized, 4)
        assert cache.misses == 2

    def test_lru_bound(self):
        cache = TraceCache(max_traces=2)
        specs = [
            WorkloadSpec.plain(lambda n_bins=n_bins: hist_factory(n_bins=n_bins))
            for n_bins in (16, 32, 64)
        ]
        for spec in specs:
            cache.get(spec, 2)
        assert len(cache) == 2
        cache.get(specs[0], 2)  # evicted: regenerating counts as a miss
        assert cache.misses == 4

    def test_shared_trace_simulates_identically(self):
        cache = TraceCache()
        spec = WorkloadSpec.plain(hist_factory)
        config = small_test_config(4)
        shared = simulate(cache.get(spec, 4), config, "COUP")
        fresh = simulate(spec.materialize(4), config, "COUP")
        assert shared == fresh


class TestSimulationResultRoundtrip:
    def test_json_roundtrip_is_bit_identical(self):
        workload = hist_factory()
        result = simulate(workload.generate(2), table1_config(2), "COUP", track_values=True)
        encoded = json.loads(json.dumps(result.to_jsonable()))
        from repro.sim.stats import SimulationResult

        assert SimulationResult.from_jsonable(encoded) == result


class TestResultCache:
    def _point(self):
        return SimPoint(
            "p", WorkloadSpec.plain(hist_factory), "COUP", 2, table1_config(2)
        )

    def test_store_then_load(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        point = self._point()
        value, cached = sweep.run_point(point, result_cache=cache)
        assert not cached
        replay, cached = sweep.run_point(point, result_cache=cache)
        assert cached
        assert replay == value

    def test_write_only_cache_never_replays(self, tmp_path):
        writer = ResultCache(str(tmp_path), read=False)
        point = self._point()
        sweep.run_point(point, result_cache=writer)
        _value, cached = sweep.run_point(point, result_cache=writer)
        assert not cached  # read disabled
        reader = ResultCache(str(tmp_path))
        _value, cached = sweep.run_point(point, result_cache=reader)
        assert cached  # but the entry was persisted

    def test_scale_is_part_of_the_fingerprint(self, tmp_path, monkeypatch):
        cache = ResultCache(str(tmp_path))
        point = self._point()
        sweep.run_point(point, result_cache=cache)
        monkeypatch.setattr(settings, "_scale", 0.06)
        _value, cached = sweep.run_point(point, result_cache=cache)
        assert not cached

    def test_uncacheable_func_point(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        point = FuncPoint("f", lambda ctx: {"x": 1})
        _value, cached = sweep.run_point(point, result_cache=cache)
        assert not cached
        _value, cached = sweep.run_point(point, result_cache=cache)
        assert not cached  # fingerprint_data=None -> never cached

    def test_corrupt_cache_entry_recomputes(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        point = self._point()
        sweep.run_point(point, result_cache=cache)
        for path in tmp_path.iterdir():
            path.write_text("{ not json")
        value, cached = sweep.run_point(point, result_cache=cache)
        assert not cached
        assert value.run_cycles > 0


class TestExecute:
    def test_execute_resumes_from_cache(self, tmp_path):
        spec = traffic_reduction.sweep_spec(n_cores=2)
        cache = ResultCache(str(tmp_path))
        first = execute(spec, result_cache=cache)
        assert cache.stores == len(spec.points)
        second = execute(spec, result_cache=cache)
        assert cache.loads == len(spec.points)
        assert spec.rows(first) == spec.rows(second)

    def test_duplicate_point_keys_rejected(self):
        point = FuncPoint("dup", lambda ctx: 1)
        with pytest.raises(ValueError, match="duplicate sweep point"):
            SweepSpec("x", [point, point], lambda results: results)

    def test_func_point_can_share_traces(self):
        spec = WorkloadSpec.plain(hist_factory)
        ctx = ExecutionContext(TraceCache())
        point = FuncPoint("stats", lambda c: c.trace(spec, 2).total_accesses)
        assert point.execute(ctx) == spec.materialize(2).total_accesses


class TestRunnerPointMode:
    def test_jobs_resume_replays_every_point(self, tmp_path, capsys):
        results_dir = str(tmp_path / "records")
        cache_dir = str(tmp_path / "cache")
        args = ["traffic", "--jobs", "2", "--results-dir", results_dir, "--cache-dir", cache_dir]
        assert runner_main(args) == 0
        first_out = capsys.readouterr().out
        assert "Sec. 5.2" in first_out

        assert runner_main(args + ["--resume"]) == 0
        second_out = capsys.readouterr().out
        # Tables rebuilt from cached points must match the computed run
        # (modulo the timing line).
        strip = lambda text: [  # noqa: E731
            line for line in text.splitlines() if not line.startswith("[traffic] completed")
        ]
        assert strip(second_out) == strip(first_out)

        point_records = sorted((tmp_path / "records" / "points" / "traffic").glob("*.json"))
        assert point_records
        records = [json.loads(path.read_text()) for path in point_records]
        assert all(record["cached"] for record in records)
        assert all(record["status"] == "ok" for record in records)
        assert {record["point"] for record in records} == set(
            traffic_reduction.sweep_spec(n_cores=settings.max_cores()).point_keys
        )

    def test_serial_and_jobs_write_the_same_point_records(self, tmp_path, capsys):
        def run(name, *extra):
            results_dir = tmp_path / name
            args = ["table1", "traffic", "--results-dir", str(results_dir), *extra]
            assert runner_main(args) == 0
            out = [
                line
                for line in capsys.readouterr().out.splitlines()
                if " completed in " not in line
            ]
            records = {
                (path.parent.name, record["point"]): record["status"]
                for path in (results_dir / "points").glob("*/*.json")
                for record in [json.loads(path.read_text())]
            }
            return out, records

        serial_out, serial_records = run("serial")
        jobs_out, jobs_records = run("jobs", "--jobs", "2")
        assert serial_out == jobs_out
        assert serial_records == jobs_records
        assert ("table1", "config") in serial_records
        assert set(serial_records.values()) == {"ok"}

    def test_serial_failing_point_fails_after_the_rest_run(
        self, tmp_path, capsys, monkeypatch
    ):
        import sys
        import types

        import repro.experiments.runner as runner_module

        def broken(ctx):
            raise RuntimeError("broken point")

        module = types.ModuleType("repro.experiments._half_broken_for_tests")
        module.sweep_spec = lambda: SweepSpec(
            "half-broken",
            [FuncPoint("bad", broken), FuncPoint("good", lambda ctx: 1)],
            dict,
        )
        module.render = print
        monkeypatch.setitem(sys.modules, module.__name__, module)
        monkeypatch.setitem(runner_module.EXPERIMENT_MODULES, "half-broken", module.__name__)
        results_dir = tmp_path / "records"
        assert runner_main(["half-broken", "--results-dir", str(results_dir)]) == 1
        err = capsys.readouterr().err
        assert "sweep points failed: bad" in err
        assert "broken point" in err
        statuses = {
            record["point"]: record["status"]
            for path in (results_dir / "points" / "half-broken").glob("*.json")
            for record in [json.loads(path.read_text())]
        }
        assert statuses == {"bad": "error", "good": "ok"}

    def test_experiment_record_reports_point_counts(self, tmp_path, capsys):
        results_dir = str(tmp_path / "records")
        assert runner_main(["table1", "--jobs", "2", "--results-dir", results_dir]) == 0
        capsys.readouterr()
        record = json.loads((tmp_path / "records" / "table1.json").read_text())
        assert record["status"] == "ok"
        assert record["n_points"] == 1
        assert record["cached_points"] == 0
        assert "Table 1" in record["output"]

    def test_failing_point_fails_the_experiment_only(self, tmp_path, capsys, monkeypatch):
        import repro.experiments.runner as runner_module

        monkeypatch.setitem(
            runner_module.EXPERIMENT_MODULES, "boom", "repro.experiments.does_not_exist"
        )
        results_dir = str(tmp_path / "records")
        assert runner_main(["boom", "table1", "--jobs", "2", "--results-dir", results_dir]) == 1
        captured = capsys.readouterr()
        assert "Table 1" in captured.out  # the healthy sibling still ran
        assert "boom" in captured.err


class TestColumnarTraceCache:
    def test_cache_serves_columnar_traces(self):
        from repro.sim.columnar import ColumnarTrace

        cache = TraceCache()
        trace = cache.get(WorkloadSpec.plain(hist_factory), 4)
        assert isinstance(trace, ColumnarTrace)
        assert cache.total_bytes == trace.nbytes > 0
        stats = cache.stats()
        assert stats["traces"] == 1 and stats["misses"] == 1
        assert stats["bytes"] == trace.nbytes

    def test_columnar_cache_simulates_identically_to_object_form(self):
        cache = TraceCache()
        spec = WorkloadSpec.plain(hist_factory)
        config = small_test_config(4)
        columnar = simulate(cache.get(spec, 4), config, "COUP", track_values=True)
        fresh = simulate(spec.materialize(4), config, "COUP", track_values=True)
        assert columnar == fresh

    def test_unpackable_trace_raises_codec_error(self):
        from repro.sim.access import MemoryAccess, WorkloadTrace
        from repro.sim.columnar import TraceCodecError

        class WeirdWorkload(MultiCounterWorkload):
            def generate_columnar(self, n_cores):
                raise AssertionError("must not be used for unpackable traces")

            def generate(self, n_cores):
                trace = [MemoryAccess.store(64, value=("un", "packable"))]
                return WorkloadTrace(name="weird", per_core=[trace] * n_cores)

        cache = TraceCache()
        spec = WorkloadSpec(
            lambda: WeirdWorkload(n_counters=4, updates_per_core=2),
            materialize=lambda workload, n_cores: workload.generate(n_cores),
        )
        # The cache and the simulator hold packed traces only: an operand
        # the codec cannot represent fails loudly instead of running an
        # object-form trace.
        with pytest.raises(TraceCodecError):
            cache.get(spec, 2)
        assert len(cache) == 0
        with pytest.raises(TraceCodecError):
            simulate(spec.materialize(2), small_test_config(2), "MESI")

    def test_store_dir_roundtrips_traces_through_npz(self, tmp_path):
        store = str(tmp_path / "traces")
        first = TraceCache(store_dir=store)
        spec = WorkloadSpec.plain(hist_factory)
        trace = first.get(spec, 4)
        assert first.disk_stores == 1 and first.disk_loads == 0

        second = TraceCache(store_dir=store)
        loaded = second.get(WorkloadSpec.plain(hist_factory), 4)
        assert second.disk_loads == 1 and second.disk_stores == 0
        assert loaded == trace

    def test_corrupt_npz_regenerates(self, tmp_path):
        store = str(tmp_path / "traces")
        first = TraceCache(store_dir=store)
        first.get(WorkloadSpec.plain(hist_factory), 4)
        for path in (tmp_path / "traces").iterdir():
            path.write_bytes(b"not an npz")
        second = TraceCache(store_dir=store)
        trace = second.get(WorkloadSpec.plain(hist_factory), 4)
        assert second.disk_loads == 0  # corrupt file rejected, regenerated
        assert trace.total_accesses > 0


class TestSharedMemoryTraces:
    def test_publish_attach_roundtrip(self):
        spec = WorkloadSpec.plain(hist_factory)
        key = spec.key(4)
        trace = spec.materialize_columnar(4)
        handle, segment = sweep.publish_trace_shm(trace, key)
        try:
            attached = sweep.attach_trace_shm(handle)
            assert attached == trace
            assert not attached.columns[0].flags.writeable
            # Zero-copy: the attached arrays view the shared segment rather
            # than owning their data.
            assert not attached.columns[0].flags.owndata
            config = small_test_config(4)
            assert simulate(attached, config, "COUP") == simulate(trace, config, "COUP")
            del attached
        finally:
            segment.close()
            segment.unlink()


class TestParallelTraceGeneration:
    """Where ``--jobs`` traces come from: with a cache dir, the parent's
    prefetch into the ``.npz`` store; without one, each worker."""

    @staticmethod
    def _strip_timing(text):
        return [line for line in text.splitlines() if not line.startswith("[traffic] completed")]

    def test_parent_materializes_no_trace(self, tmp_path, capsys, monkeypatch):
        # Forked workers inherit the parent's trace cache: start it empty so
        # any trace the parent materialized would be counted here.
        sweep.shared_trace_cache().clear()
        parent_calls = []
        materialize = WorkloadSpec.materialize_columnar

        def counting(self, n_cores):
            # Appends made in forked workers stay in the workers.
            parent_calls.append(n_cores)
            return materialize(self, n_cores)

        monkeypatch.setattr(WorkloadSpec, "materialize_columnar", counting)
        # No --cache-dir: there is no store to prefetch into.
        argv = ["traffic", "--jobs", "2", "--results-dir", str(tmp_path / "jobs")]
        assert runner_main(argv) == 0
        assert parent_calls == []
        parallel_out = capsys.readouterr().out
        assert runner_main(["traffic"]) == 0
        assert parent_calls, "the serial run generated no trace"
        serial_out = capsys.readouterr().out
        assert self._strip_timing(parallel_out) == self._strip_timing(serial_out)

    # ``sensitivity`` runs each trace under two machine configs, so points
    # share keys across workers; four workers spread them wider.
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parent_prefetches_each_trace_once(self, tmp_path, monkeypatch, jobs):
        sweep.shared_trace_cache().clear()
        parent = os.getpid()
        parent_keys = []
        worker_log = tmp_path / "worker-generated"
        materialize = WorkloadSpec.materialize_columnar

        def counting(self, n_cores):
            if os.getpid() == parent:
                parent_keys.append(self.key(n_cores))
            else:
                with open(worker_log, "a") as handle:
                    handle.write(f"{self.key(n_cores)!r}\n")
            return materialize(self, n_cores)

        monkeypatch.setattr(WorkloadSpec, "materialize_columnar", counting)
        cache_dir = tmp_path / "cache"
        argv = [
            "traffic",
            "sensitivity",
            "--jobs",
            str(jobs),
            "--results-dir",
            str(tmp_path / "results"),
            "--cache-dir",
            str(cache_dir),
        ]
        assert runner_main(argv) == 0
        points = [
            point
            for module in (traffic_reduction, sensitivity_reduction_unit)
            for point in module.sweep_spec().points
            if isinstance(point, SimPoint)
        ]
        keys = {point.workload.key(point.n_cores): point for point in points}
        assert len(parent_keys) == len(keys) and set(parent_keys) == set(keys)
        assert not worker_log.exists(), worker_log.read_text()
        stored = sorted(os.listdir(cache_dir / "traces"))
        assert stored == sorted(f"{sweep.trace_key_digest(key)}.npz" for key in keys)

        def regenerate(self, n_cores):
            raise AssertionError("a stored trace was regenerated")

        monkeypatch.setattr(WorkloadSpec, "materialize_columnar", regenerate)
        cache = TraceCache(store_dir=str(cache_dir / "traces"))
        for point in keys.values():
            cache.get(point.workload, point.n_cores)
        assert cache.disk_loads == len(keys) and cache.disk_stores == 0

    def test_worker_holds_one_trace_with_a_store(self, tmp_path, monkeypatch):
        # A worker's memory must not depend on which points reached it.
        parent = os.getpid()
        held_log = tmp_path / "held"
        get = TraceCache.get

        def recording(self, spec, n_cores):
            trace = get(self, spec, n_cores)
            if os.getpid() != parent:
                with open(held_log, "a") as handle:
                    handle.write(f"{len(self._traces)}\n")
            return trace

        monkeypatch.setattr(TraceCache, "get", recording)
        argv = ["traffic", "--jobs", "2", "--results-dir", str(tmp_path / "results")]
        assert runner_main(argv + ["--cache-dir", str(tmp_path / "cache")]) == 0
        assert set(held_log.read_text().split()) == {"1"}
