"""repro-lint: AST-based determinism & protocol-contract checker.

The reproduction's headline guarantees — golden fingerprints, sweep-cache
reuse, ``--jobs N`` determinism, kernel/scalar bit-identity — all rest on
informal source discipline: seeded RNG threading, canonical serialization
order, heap tie-breaks, slotted hot-path objects.  This package enforces
those contracts mechanically, at commit time, as the always-on static
complement to the dynamic model checker in :mod:`repro.verification`.

Usage::

    python -m repro.lint                 # lint src/repro against the budget
    python -m repro.lint path/to/file.py # lint specific files or directories
    python -m repro.lint --list-rules    # rule catalogue
    python -m repro.lint --format json   # machine-readable findings

Rules carry per-rule codes (``D1xx`` determinism, ``P2xx`` protocol
contracts, ``H3xx`` hot-path hygiene, ``X1xx`` engine meta-findings).  A
finding may be waived inline with an audited suppression comment::

    for key, value in table.items():  # repro-lint: disable=D102(entries are independent; visit order cannot matter)

The reason is mandatory, unused suppressions are themselves findings
(``X102``), and every suppression in the tree must be declared in the
tracked budget file (``lint-budget.json``) or the run fails (``X103``) —
so the waiver surface is reviewed like code.
"""

from __future__ import annotations

from repro.lint.engine import LintReport, lint_paths, load_source_module
from repro.lint.rules import all_rules, rule_catalogue
from repro.lint.violations import Violation

__all__ = [
    "LintReport",
    "Violation",
    "all_rules",
    "lint_paths",
    "load_source_module",
    "rule_catalogue",
]
