"""Tests for the experiment runner CLI, settings, and table helpers."""

from __future__ import annotations

import pytest

from repro.experiments import EXPERIMENT_MODULES, settings
from repro.experiments.runner import main as runner_main
from repro.experiments.tables import format_table, format_value


class TestSettings:
    def test_scale_roundtrip(self):
        original = settings.scale()
        try:
            settings.set_scale(0.5)
            assert settings.scale() == 0.5
            assert settings.scaled(100) == 50
            assert settings.scaled(1, minimum=3) == 3
        finally:
            settings.set_scale(original)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            settings.set_scale(0)
        with pytest.raises(ValueError):
            settings.set_max_cores(-1)

    def test_core_sweep_respects_cap(self):
        original = settings.max_cores()
        try:
            settings.set_max_cores(32)
            assert settings.core_sweep() == [1, 32]
            settings.set_max_cores(128)
            assert settings.core_sweep() == [1, 32, 64, 96, 128]
            settings.set_max_cores(4)
            assert settings.core_sweep() == [1, 4]
        finally:
            settings.set_max_cores(original)

    def test_amat_core_points(self):
        original = settings.max_cores()
        try:
            settings.set_max_cores(32)
            assert settings.amat_core_points() == [8, 32]
            settings.set_max_cores(128)
            assert settings.amat_core_points() == [8, 32, 128]
        finally:
            settings.set_max_cores(original)

    def test_core_sweep_accepts_any_sequence(self):
        original = settings.max_cores()
        try:
            settings.set_max_cores(64)
            # Tuples, lists, and ranges are all valid paper_points inputs.
            assert settings.core_sweep((1, 16, 64)) == [1, 16, 64]
            assert settings.core_sweep([1, 16, 128]) == [1, 16]
            assert settings.core_sweep(range(60, 70)) == [60, 61, 62, 63, 64]
        finally:
            settings.set_max_cores(original)

    def test_core_sweep_edge_cases(self):
        original = settings.max_cores()
        try:
            settings.set_max_cores(16)
            # Every paper point above the cap: fall back to [1, cap].
            assert settings.core_sweep((32, 64)) == [1, 16]
            # Single surviving point on a multi-core cap: cap appended.
            assert settings.core_sweep((1,)) == [1, 16]
            settings.set_max_cores(1)
            # A 1-core cap keeps just the single-core baseline.
            assert settings.core_sweep() == [1]
            assert settings.core_sweep((32,)) == [1]
        finally:
            settings.set_max_cores(original)

    def test_sweep_with_baseline(self):
        original = settings.max_cores()
        try:
            settings.set_max_cores(16)
            assert settings.sweep_with_baseline() == [1, 16]
            assert settings.sweep_with_baseline([8, 16]) == [1, 8, 16]
            assert settings.sweep_with_baseline((1, 4)) == [1, 4]
        finally:
            settings.set_max_cores(original)

    def test_amat_core_points_edge_cases(self):
        original = settings.max_cores()
        try:
            settings.set_max_cores(4)
            # All paper points above the cap: a single capped point survives.
            assert settings.amat_core_points() == [4]
            settings.set_max_cores(8)
            assert settings.amat_core_points() == [8]
            settings.set_max_cores(12)
            # The cap itself is added once it can hold the smallest point.
            assert settings.amat_core_points() == [8, 12]
            settings.set_max_cores(128)
            # Duplicates collapse: the cap coincides with a paper point.
            assert settings.amat_core_points((8, 128, 128)) == [8, 128]
        finally:
            settings.set_max_cores(original)


class TestSettingsEnvironment:
    """REPRO_SCALE / REPRO_MAX_CORES are read at module import time."""

    def _reload(self):
        import importlib

        return importlib.reload(settings)

    def _restore(self, scale, max_cores):
        settings.set_scale(scale)
        settings.set_max_cores(max_cores)

    def test_env_vars_parsed_on_import(self, monkeypatch):
        original = (settings.scale(), settings.max_cores())
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        monkeypatch.setenv("REPRO_MAX_CORES", "8")
        try:
            self._reload()
            assert settings.scale() == 0.25
            assert settings.max_cores() == 8
        finally:
            monkeypatch.delenv("REPRO_SCALE")
            monkeypatch.delenv("REPRO_MAX_CORES")
            self._reload()
            self._restore(*original)

    def test_defaults_without_env_vars(self, monkeypatch):
        original = (settings.scale(), settings.max_cores())
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        monkeypatch.delenv("REPRO_MAX_CORES", raising=False)
        try:
            self._reload()
            assert settings.scale() == 1.0
            assert settings.max_cores() == 64
        finally:
            self._reload()
            self._restore(*original)

    def test_malformed_env_value_raises_at_import(self, monkeypatch):
        original = (settings.scale(), settings.max_cores())
        monkeypatch.setenv("REPRO_SCALE", "not-a-number")
        try:
            with pytest.raises(ValueError):
                self._reload()
        finally:
            monkeypatch.delenv("REPRO_SCALE")
            self._reload()
            self._restore(*original)


class TestMakeProtocol:
    def test_unknown_name_reports_alternatives(self):
        from repro.sim.config import small_test_config
        from repro.sim.simulator import PROTOCOLS, make_protocol

        with pytest.raises(ValueError, match="unknown protocol 'MOESI'") as excinfo:
            make_protocol("MOESI", small_test_config(2))
        for name in PROTOCOLS:
            assert name in str(excinfo.value)

    def test_lookup_is_case_insensitive(self):
        from repro.sim.config import small_test_config
        from repro.sim.simulator import make_protocol

        assert make_protocol("coup", small_test_config(2)).name == "COUP"


class TestRunnerCli:
    def test_list(self, capsys):
        assert runner_main(["--list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in EXPERIMENT_MODULES:
            assert experiment_id in out

    def test_unknown_experiment(self, capsys):
        assert runner_main(["not-an-experiment"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_run_single_cheap_experiment(self, capsys):
        assert runner_main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "completed in" in out

    def test_main_accepts_no_argv(self, monkeypatch, capsys):
        # main's argv parameter is Optional: None must fall back to sys.argv.
        monkeypatch.setattr("sys.argv", ["runner", "--list"])
        assert runner_main() == 0
        assert capsys.readouterr().out

    def test_failing_experiment_propagates_nonzero_exit(self, monkeypatch, capsys):
        import repro.experiments.runner as runner_module

        monkeypatch.setitem(
            runner_module.EXPERIMENT_MODULES, "boom", "repro.experiments.does_not_exist"
        )
        assert runner_main(["boom"]) == 1
        err = capsys.readouterr().err
        assert "FAILED" in err
        assert "boom" in err

    def test_failure_does_not_abort_siblings(self, monkeypatch, capsys):
        import repro.experiments.runner as runner_module

        monkeypatch.setitem(
            runner_module.EXPERIMENT_MODULES, "boom", "repro.experiments.does_not_exist"
        )
        assert runner_main(["boom", "table1"]) == 1
        captured = capsys.readouterr()
        assert "Table 1" in captured.out  # the healthy sibling still ran

    @pytest.mark.parametrize("jobs", [[], ["--jobs", "2"]], ids=["serial", "jobs2"])
    def test_module_without_sweep_spec_fails(self, monkeypatch, capsys, tmp_path, jobs):
        import sys
        import types

        import repro.experiments.runner as runner_module

        module = types.ModuleType("repro.experiments._no_spec_for_tests")
        module.main = lambda: print("Stub table")
        module.render = print
        monkeypatch.setitem(sys.modules, module.__name__, module)
        monkeypatch.setitem(runner_module.EXPERIMENT_MODULES, "no-spec", module.__name__)
        argv = ["no-spec", "table1", "--results-dir", str(tmp_path), *jobs]
        assert runner_main(argv) == 1
        captured = capsys.readouterr()
        assert "Table 1" in captured.out
        assert "Stub table" not in captured.out
        assert "[no-spec] FAILED building sweep spec" in captured.err
        assert "1 experiment(s) failed: no-spec" in captured.err

    def test_results_dir_records(self, tmp_path, capsys):
        results_dir = str(tmp_path / "records")
        assert runner_main(["table1", "--results-dir", results_dir]) == 0
        record_path = tmp_path / "records" / "table1.json"
        assert record_path.exists()
        import json

        record = json.loads(record_path.read_text())
        assert record["experiment_id"] == "table1"
        assert record["status"] == "ok"
        assert "Table 1" in record["output"]

    def test_parallel_jobs_run_and_record(self, tmp_path, capsys):
        results_dir = str(tmp_path / "records")
        assert (
            runner_main(["table1", "table2", "--jobs", "2", "--results-dir", results_dir])
            == 0
        )
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out
        assert (tmp_path / "records" / "table1.json").exists()
        assert (tmp_path / "records" / "table2.json").exists()

    def test_seed_is_deterministic_per_experiment(self):
        from repro.experiments.runner import _experiment_seed

        assert _experiment_seed(0, "figure10") == _experiment_seed(0, "figure10")
        assert _experiment_seed(0, "figure10") != _experiment_seed(0, "figure12")
        assert _experiment_seed(0, "figure10") != _experiment_seed(1, "figure10")


class TestTableFormatting:
    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(0.0) == "0"
        assert format_value(1234.5678) == "1,235"
        assert format_value(0.123456) == "0.123"
        assert format_value(123456) == "123,456"
        assert format_value("x") == "x"

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="Empty")

    def test_format_table_column_selection(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "b" in text and "a" not in text
