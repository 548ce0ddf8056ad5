"""Tests for the deterministic fault-injection spec and plan."""

from __future__ import annotations

import pytest

from repro.experiments import faults


class TestParseFaultSpec:
    def test_empty_spec_means_no_faults(self):
        assert faults.parse_fault_spec("") == ()
        assert faults.parse_fault_spec(" ; ; ") == ()

    def test_bare_kind(self):
        (directive,) = faults.parse_fault_spec("kill")
        assert directive.kind == "kill"
        assert directive.point == ""
        assert directive.experiment == ""
        assert directive.times == 1

    def test_full_grammar(self):
        spec = "kill:point=hist,exp=traffic,times=2;hang:secs=1.5;torn:cut=7"
        kill, hang, torn = faults.parse_fault_spec(spec)
        assert (kill.kind, kill.point, kill.experiment, kill.times) == (
            "kill",
            "hist",
            "traffic",
            2,
        )
        assert (hang.kind, hang.secs) == ("hang", 1.5)
        assert (torn.kind, torn.cut) == ("torn", 7)

    @pytest.mark.parametrize(
        "spec",
        [
            "explode",  # unknown kind
            "shm:point=counter",  # retired kind: no injection site left
            "kill:point",  # parameter without value
            "kill:bogus=1",  # unknown parameter
            "kill:times=zero",  # malformed value
            "kill:times=0",  # out of domain
            "hang:secs=soon",  # malformed float
        ],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(faults.FaultSpecError):
            faults.parse_fault_spec(spec)


class TestFaultDirective:
    def test_matching_is_substring_and_attempt_bounded(self):
        directive = faults.FaultDirective(kind="kill", point="hist", times=2)
        assert directive.matches("traffic", "hist/MESI", 0)
        assert directive.matches("traffic", "hist/MESI", 1)
        assert not directive.matches("traffic", "hist/MESI", 2)  # retries run clean
        assert not directive.matches("traffic", "spmv/MESI", 0)

    def test_empty_filters_match_everything_once(self):
        directive = faults.FaultDirective(kind="kill")
        assert directive.matches("anything", "at/all", 0)
        assert not directive.matches("anything", "at/all", 1)


class TestFaultPlan:
    def test_should_returns_first_matching_directive(self):
        plan = faults.FaultPlan(faults.parse_fault_spec("kill:point=a;kill:point=b"))
        assert plan.should("kill", "e", "point-a", 0).point == "a"
        assert plan.should("kill", "e", "point-b", 0).point == "b"
        assert plan.should("kill", "e", "point-c", 0) is None
        assert plan.should("hang", "e", "point-a", 0) is None

    def test_bool_reflects_directives(self):
        assert not faults.FaultPlan()
        assert faults.FaultPlan(faults.parse_fault_spec("kill"))

    def test_fire_counted_is_per_directive(self):
        plan = faults.FaultPlan(faults.parse_fault_spec("torn:point=x,times=2"))
        assert plan.fire_counted("torn", "e", "x/1") is not None
        assert plan.fire_counted("torn", "e", "x/2") is not None
        assert plan.fire_counted("torn", "e", "x/3") is None  # times exhausted

    def test_torn_hook_absent_without_torn_directive(self):
        assert faults.FaultPlan(faults.parse_fault_spec("kill")).torn_hook() is None

    def test_torn_hook_cuts_record(self):
        plan = faults.FaultPlan(faults.parse_fault_spec("torn:point=bfs"))
        hook = plan.torn_hook()
        record = {"experiment_id": "traffic", "point": "bfs/MESI"}
        cut = hook(record, 100)
        assert cut == 50  # default: half the encoded record
        assert hook(record, 100) is None  # fires once
        assert hook({"experiment_id": "t", "point": "other"}, 100) is None

    def test_torn_hook_explicit_cut_clamped(self):
        plan = faults.FaultPlan(faults.parse_fault_spec("torn:cut=7"))
        assert plan.torn_hook()({"experiment_id": "e", "point": "p"}, 100) == 7
        plan = faults.FaultPlan(faults.parse_fault_spec("torn:cut=500"))
        # A cut past the record length degenerates to the half-write default.
        assert plan.torn_hook()({"experiment_id": "e", "point": "p"}, 100) == 50


class TestActivePlan:
    def test_refresh_reads_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", "kill:point=hist")
        plan = faults.refresh_active_plan()
        assert plan.should("kill", "e", "hist/MESI", 0) is not None
        monkeypatch.setenv("REPRO_FAULT", "")
        assert not faults.refresh_active_plan()
        assert faults.active_plan() is not None

    def test_set_active_plan_overrides(self):
        plan = faults.FaultPlan()
        faults.set_active_plan(plan)
        try:
            assert faults.active_plan() is plan
        finally:
            faults.set_active_plan(None)

    def test_malformed_environment_spec_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", "explode")
        with pytest.raises(faults.FaultSpecError):
            faults.refresh_active_plan()
        monkeypatch.setenv("REPRO_FAULT", "")
        faults.refresh_active_plan()
