"""Fixture suites for the protocol-contract rules (P201-P203)."""

from __future__ import annotations

from repro.lint.rules.protocol import (
    BatchContractRule,
    StateAlphabetRule,
    UnknownEnumMemberRule,
)

from lint_helpers import codes, lines_of, lint_sources  # noqa: F401 (fixture)

CORE = "src/repro/core/fixture.py"


class TestP201UnknownEnumMember:
    def test_unknown_member_fires(self, lint_sources):
        source = (
            "from repro.core.states import StableState\n"
            "state = StableState.BOGUS\n"
        )
        report = lint_sources({CORE: source}, rules=[UnknownEnumMemberRule()])
        assert codes(report) == ["P201"]
        assert lines_of(report, "P201") == [2]

    def test_real_members_pass(self, lint_sources):
        source = (
            "from repro.core.states import LineMode, RequestType, StableState\n"
            "a = StableState.MODIFIED\n"
            "b = LineMode.UPDATE_ONLY\n"
            "c = RequestType.READ\n"
        )
        report = lint_sources({CORE: source}, rules=[UnknownEnumMemberRule()])
        assert report.ok


class TestP202BatchContract:
    def test_bad_hot_commutative_value_fires(self, lint_sources):
        source = (
            "class FancyProtocol:\n"
            "    HOT_COMMUTATIVE = 'sometimes'\n"
        )
        report = lint_sources({CORE: source}, rules=[BatchContractRule()])
        assert "P202" in codes(report)

    def test_local_commutative_without_batch_hook_fires(self, lint_sources):
        source = (
            "class FancyProtocol:\n"
            "    HOT_COMMUTATIVE = 'local'\n"
        )
        report = lint_sources({CORE: source}, rules=[BatchContractRule()])
        assert "P202" in codes(report)

    def test_batch_kernel_without_hot_mask_fires(self, lint_sources):
        source = (
            "class FancyProtocol:\n"
            "    SUPPORTS_BATCH_KERNEL = True\n"
            "    HOT_COMMUTATIVE = 'atomic'\n"
        )
        report = lint_sources({CORE: source}, rules=[BatchContractRule()])
        assert "P202" in codes(report)

    def test_full_contract_passes(self, lint_sources):
        source = (
            "class FancyProtocol:\n"
            "    SUPPORTS_BATCH_KERNEL = True\n"
            "    HOT_COMMUTATIVE = 'local'\n"
            "    def hot_mask(self, codes):\n"
            "        return codes\n"
            "    def batch_uop_code(self):\n"
            "        return 0\n"
        )
        report = lint_sources({CORE: source}, rules=[BatchContractRule()])
        assert report.ok

    def test_inheriting_engine_passes(self, lint_sources):
        # A subclass of a known hot_mask provider inherits the contract.
        source = (
            "from repro.core.mesi import MesiProtocol\n"
            "class TweakedMesi(MesiProtocol):\n"
            "    SUPPORTS_BATCH_KERNEL = True\n"
            "    HOT_COMMUTATIVE = 'atomic'\n"
        )
        report = lint_sources({CORE: source}, rules=[BatchContractRule()])
        assert report.ok

    def test_opting_out_of_the_kernel_needs_no_hot_mask(self, lint_sources):
        source = (
            "class ScalarOnlyProtocol:\n"
            "    SUPPORTS_BATCH_KERNEL = False\n"
            "    HOT_COMMUTATIVE = 'atomic'\n"
        )
        report = lint_sources({CORE: source}, rules=[BatchContractRule()])
        assert report.ok

    def test_annotated_hot_commutative_is_checked(self, lint_sources):
        source = (
            "class FancyProtocol:\n"
            "    HOT_COMMUTATIVE: str = 'sometimes'\n"
        )
        report = lint_sources({CORE: source}, rules=[BatchContractRule()])
        assert codes(report) == ["P202"]
        assert lines_of(report, "P202") == [1]

    def test_attribute_base_inherits_hot_mask(self, lint_sources):
        # ``mesi.MesiProtocol`` names the provider through a module attribute.
        source = (
            "from repro.core import mesi\n"
            "class TweakedMesi(mesi.MesiProtocol):\n"
            "    SUPPORTS_BATCH_KERNEL = True\n"
        )
        report = lint_sources({CORE: source}, rules=[BatchContractRule()])
        assert report.ok

    def test_live_engine_breaking_the_contract_is_reported(self, monkeypatch):
        # The run-level check reads the live PROTOCOLS registry, so an engine
        # registered at runtime is held to the same contract.
        from repro.lint.context import ProjectContext
        from repro.lint.engine import load_source_module, run_rules
        from lint_helpers import REPO_ROOT
        import os

        _register_broken_engine(monkeypatch)
        rel = "src/repro/sim/columnar.py"
        module = load_source_module(os.path.join(REPO_ROOT, rel), rel)
        raw, _ = run_rules([module], [BatchContractRule()], ProjectContext(REPO_ROOT))
        findings = [v for v in raw if v.code == "P202"]
        assert len(findings) == 1
        message = findings[0].message
        assert "protocol BROKEN (BrokenProtocol)" in message
        assert "lacks a callable hot_mask" in message
        assert "local folding without batch_uop_code" in message
        assert findings[0].path.endswith("test_rules_protocol.py")

    def test_live_check_needs_the_columnar_module_in_the_run(
        self, lint_sources, monkeypatch
    ):
        # Linting a fixture alone must not drag the live package into the run.
        _register_broken_engine(monkeypatch)
        report = lint_sources({CORE: "x = 1\n"}, rules=[BatchContractRule()])
        assert report.ok

    def test_real_tree_semantic_contract(self):
        # The run-level finalize cross-checks the live PROTOCOLS registry
        # and the 104-entry columnar type-code table; exercised in full by
        # test_tree_is_clean, but assert the gate directly here too.
        from repro.lint.context import ProjectContext
        from repro.lint.engine import load_source_module, run_rules
        from lint_helpers import REPO_ROOT
        import os

        rel = "src/repro/sim/columnar.py"
        module = load_source_module(os.path.join(REPO_ROOT, rel), rel)
        raw, _ = run_rules([module], [BatchContractRule()], ProjectContext(REPO_ROOT))
        assert [v for v in raw if v.code == "P202"] == []


def _register_broken_engine(monkeypatch):
    """Register a batch engine with no hot_mask and no local-folding hook."""
    from repro.sim import simulator

    class BrokenProtocol:
        SUPPORTS_BATCH_KERNEL = True
        HOT_COMMUTATIVE = "local"
        hot_mask = None

    monkeypatch.setitem(simulator.PROTOCOLS, "BROKEN", BrokenProtocol)


class TestP203StateAlphabet:
    def test_update_in_plain_mesi_engine_fires(self, lint_sources):
        source = (
            "from repro.core.states import StableState\n"
            "def f():\n"
            "    return StableState.UPDATE\n"
        )
        report = lint_sources(
            {"src/repro/core/rmo.py": source}, rules=[StateAlphabetRule()]
        )
        assert codes(report) == ["P203"]
        assert lines_of(report, "P203") == [3]

    def test_update_in_meusi_engine_passes(self, lint_sources):
        source = (
            "from repro.core.states import StableState\n"
            "def f():\n"
            "    return StableState.UPDATE\n"
        )
        report = lint_sources(
            {"src/repro/core/meusi.py": source}, rules=[StateAlphabetRule()]
        )
        assert report.ok

    def test_non_engine_module_out_of_scope(self, lint_sources):
        source = (
            "from repro.core.states import StableState\n"
            "state = StableState.UPDATE\n"
        )
        report = lint_sources({CORE: source}, rules=[StateAlphabetRule()])
        assert report.ok
