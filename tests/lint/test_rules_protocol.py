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

    def test_slow_batch_flag_without_merge_fires(self, lint_sources):
        source = (
            "class FancyProtocol:\n"
            "    SUPPORTS_SLOW_BATCH = True\n"
        )
        report = lint_sources({CORE: source}, rules=[BatchContractRule()])
        assert "P202" in codes(report)

    def test_slow_batch_merge_without_flag_fires(self, lint_sources):
        # Defining the merge while declaring non-participation is a stale
        # flag: the kernel's dispatch would never call the method.
        source = (
            "class FancyProtocol:\n"
            "    SUPPORTS_SLOW_BATCH = False\n"
            "    def resolve_slow_batch(self):\n"
            "        return (0, 0, 0)\n"
        )
        report = lint_sources({CORE: source}, rules=[BatchContractRule()])
        assert "P202" in codes(report)

    def test_slow_batch_contract_passes_with_own_merge(self, lint_sources):
        source = (
            "class FancyProtocol:\n"
            "    SUPPORTS_SLOW_BATCH = True\n"
            "    def resolve_slow_batch(self):\n"
            "        return (0, 0, 0)\n"
        )
        report = lint_sources({CORE: source}, rules=[BatchContractRule()])
        assert report.ok

    def test_slow_batch_contract_inherited_from_mesi_family(self, lint_sources):
        source = (
            "from repro.core.mesi import MesiProtocol\n"
            "class TweakedMesi(MesiProtocol):\n"
            "    SUPPORTS_SLOW_BATCH = True\n"
        )
        report = lint_sources({CORE: source}, rules=[BatchContractRule()])
        assert report.ok

    def test_opting_out_without_defining_merge_passes(self, lint_sources):
        # RMO's shape: participation declined, merge only inherited.
        source = (
            "from repro.core.mesi import MesiProtocol\n"
            "class BankSerialised(MesiProtocol):\n"
            "    SUPPORTS_SLOW_BATCH = False\n"
        )
        report = lint_sources({CORE: source}, rules=[BatchContractRule()])
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
