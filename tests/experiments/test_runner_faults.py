"""Campaign-level fault tolerance: recovery must be bit-identical.

A synthetic experiment (3 protocols x 2 workloads) is registered with the
runner, executed fault-free, and then re-executed under deterministically
injected faults — worker SIGKILL, torn journal writes.
After recovery (in-run retries, or a killed campaign resumed), the
deterministic projection of the campaign's point records must be
byte-identical to the fault-free run.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import types

import pytest

from repro.experiments import faults, journal, runner, sweep
from repro.sim.config import table1_config
from repro.workloads.histogram import HistogramWorkload
from repro.workloads.synthetic import SharedCounterWorkload

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the chaos grid registers its experiment module in-process, "
    "which only forked workers inherit",
)

EXPERIMENT_ID = "chaos-grid"
MODULE_NAME = "repro.experiments._chaos_grid_for_tests"
PROTOCOLS = ("MESI", "COUP", "RMO")


def _build_hist() -> HistogramWorkload:
    return HistogramWorkload(n_bins=16, n_items=300, seed=7)


def _build_counter() -> SharedCounterWorkload:
    return SharedCounterWorkload(updates_per_core=40, seed=9)


def sweep_spec() -> sweep.SweepSpec:
    points = []
    for name, build in (("hist", _build_hist), ("counter", _build_counter)):
        for protocol in PROTOCOLS:
            points.append(
                sweep.SimPoint(
                    key=f"{name}/{protocol}",
                    workload=sweep.WorkloadSpec.plain(build),
                    protocol=protocol,
                    n_cores=4,
                    config=table1_config(4),
                )
            )
    return sweep.SweepSpec(EXPERIMENT_ID, points, build=dict)


def render(results: dict) -> None:
    for key in sorted(results):
        print(f"{key}: done")


@pytest.fixture
def chaos_grid(monkeypatch):
    """Register the synthetic experiment and guarantee fault-plan hygiene."""
    module = types.ModuleType(MODULE_NAME)
    module.sweep_spec = sweep_spec
    module.render = render
    monkeypatch.setitem(sys.modules, MODULE_NAME, module)
    monkeypatch.setitem(runner.EXPERIMENT_MODULES, EXPERIMENT_ID, MODULE_NAME)
    monkeypatch.delenv("REPRO_FAULT", raising=False)
    yield
    faults.set_active_plan(None)


def _campaign(tmp_path, name, *, resume=False, extra_env=(), monkeypatch=None):
    """Run the grid campaign in-process; returns (exit code, results dir)."""
    results_dir = str(tmp_path / name)
    cache_dir = str(tmp_path / f"{name}-cache")
    for key, value in extra_env:
        monkeypatch.setenv(key, value)
    argv = [
        EXPERIMENT_ID,
        "--jobs",
        "2",
        "--results-dir",
        results_dir,
        "--cache-dir",
        cache_dir,
    ]
    if resume:
        argv.append("--resume")
    code = runner.main(argv)
    for key, _ in extra_env:
        monkeypatch.delenv(key, raising=False)
    return code, results_dir


class TestFaultRecoveryBitIdentity:
    def test_kill_faults_recover_bit_identical(
        self, tmp_path, chaos_grid, monkeypatch, capsys
    ):
        code, clean_dir = _campaign(tmp_path, "clean", monkeypatch=monkeypatch)
        assert code == 0
        code, faulted_dir = _campaign(
            tmp_path,
            "faulted",
            monkeypatch=monkeypatch,
            extra_env=(
                # Each killed point's retry runs in a fresh worker, which
                # loads the point's trace from the store.
                ("REPRO_FAULT", "kill:point=hist/MESI;kill:point=counter"),
            ),
        )
        assert code == 0
        capsys.readouterr()  # drain captured worker/supervisor chatter
        clean = journal.campaign_fingerprint(clean_dir)
        faulted = journal.campaign_fingerprint(faulted_dir)
        assert clean and clean == faulted

    def test_torn_journal_crash_then_resume_bit_identical(
        self, tmp_path, chaos_grid, monkeypatch, capsys
    ):
        code, clean_dir = _campaign(tmp_path, "clean", monkeypatch=monkeypatch)
        assert code == 0
        # The campaign is killed mid-journal-write (exit 70)...
        code, torn_dir = _campaign(
            tmp_path,
            "torn",
            monkeypatch=monkeypatch,
            extra_env=(("REPRO_FAULT", "torn:point=hist"),),
        )
        assert code == 70
        # ...leaving a torn tail in its journal segment...
        replay = journal.replay_dir(journal.journal_dir(torn_dir))
        assert replay.truncated_segments
        # ...which a fault-free --resume recovers from exactly.
        code, torn_dir = _campaign(
            tmp_path, "torn", resume=True, monkeypatch=monkeypatch
        )
        assert code == 0
        capsys.readouterr()
        assert journal.campaign_fingerprint(clean_dir) == journal.campaign_fingerprint(
            torn_dir
        )

    def test_quarantined_point_degrades_not_kills(
        self, tmp_path, chaos_grid, monkeypatch, capsys
    ):
        code, results_dir = _campaign(
            tmp_path,
            "poisoned",
            monkeypatch=monkeypatch,
            extra_env=(
                # hist/COUP dies on every attempt: the point must be
                # quarantined while the other five points complete.
                ("REPRO_FAULT", "kill:point=hist/COUP,times=99"),
                ("REPRO_MAX_ATTEMPTS", "2"),
            ),
        )
        assert code == 1  # the experiment is reported failed, not crashed
        captured = capsys.readouterr()
        assert "quarantin" in captured.err
        import glob
        import json

        records = {}
        for path in glob.glob(os.path.join(results_dir, "points", "*", "*.json")):
            with open(path) as handle:
                record = json.load(handle)
            records[record["point"]] = record
        assert len(records) == 6
        assert records["hist/COUP"]["status"] == "quarantined"
        assert sum(r["status"] == "ok" for r in records.values()) == 5


class TestJournalCorruptionRefusal:
    def test_resume_over_damaged_journal_exits_nonzero(
        self, tmp_path, chaos_grid, monkeypatch, capsys
    ):
        code, results_dir = _campaign(tmp_path, "run", monkeypatch=monkeypatch)
        assert code == 0
        journal_dir = journal.journal_dir(results_dir)
        (segment,) = [
            os.path.join(journal_dir, name)
            for name in os.listdir(journal_dir)
            if name.endswith(".wal")
        ]
        data = bytearray(open(segment, "rb").read())
        data[len(journal.MAGIC) + 20] ^= 0xFF  # damage the FIRST record
        with open(segment, "wb") as handle:
            handle.write(bytes(data))
        code, _ = _campaign(tmp_path, "run", resume=True, monkeypatch=monkeypatch)
        assert code == 3
        assert "corrupt" in capsys.readouterr().err


class TestShmHygiene:
    def test_no_segments_survive_a_campaign(self, tmp_path, chaos_grid, monkeypatch):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no POSIX shm filesystem")
        code, _ = _campaign(tmp_path, "shm-clean", monkeypatch=monkeypatch)
        assert code == 0
        leaked = [
            name
            for name in os.listdir("/dev/shm")
            if name.startswith(f"{sweep.SHM_NAME_PREFIX}{os.getpid()}_")
        ]
        assert leaked == []

    def test_reclaim_stale_segments(self, tmp_path):
        child = multiprocessing.get_context("fork").Process(target=_noop)
        child.start()
        child.join()
        dead_pid = child.pid
        (tmp_path / f"repro_shm_{dead_pid}_abcdef").write_bytes(b"x")
        (tmp_path / f"repro_shm_{os.getpid()}_live").write_bytes(b"x")
        (tmp_path / "repro_shm_notapid_x").write_bytes(b"x")
        (tmp_path / "unrelated").write_bytes(b"x")
        reclaimed = sweep.reclaim_stale_segments(str(tmp_path))
        assert reclaimed == [f"repro_shm_{dead_pid}_abcdef"]
        assert not (tmp_path / f"repro_shm_{dead_pid}_abcdef").exists()
        assert (tmp_path / f"repro_shm_{os.getpid()}_live").exists()
        assert (tmp_path / "repro_shm_notapid_x").exists()
        assert (tmp_path / "unrelated").exists()

    def test_publish_uses_registry_and_release(self):
        trace = _build_hist().generate_columnar(2)
        handle, segment = sweep.publish_trace_shm(trace, ("test-key",))
        try:
            assert handle.shm_name.startswith(
                f"{sweep.SHM_NAME_PREFIX}{os.getpid()}_"
            )
            assert handle.shm_name in sweep._published_segments
        finally:
            sweep.release_trace_shm(segment)
        assert handle.shm_name not in sweep._published_segments
        if os.path.isdir("/dev/shm"):
            assert not os.path.exists(os.path.join("/dev/shm", handle.shm_name))


def _noop() -> None:
    pass
