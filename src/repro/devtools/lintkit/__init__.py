"""The per-module rules of ``urllc5g analyze`` (its lint pass).

The framework (:mod:`.core`) defines :class:`Rule`, the registry and
:func:`check_module`, which runs every registered rule on one parsed
module.  The domain rules live in :mod:`.rules`; importing this
package registers them all.  Filtering (``ignore``, ``# analyze:``
pragmas, the reviewed baseline), caching and reporting belong to
:mod:`repro.devtools.analyze` — see docs/ANALYSIS.md.
"""

from repro.devtools.lintkit.core import (
    SYNTAX_ERROR_RULE_ID,
    ModuleUnderLint,
    Rule,
    Severity,
    Violation,
    check_module,
    register,
    registered_rules,
)
from repro.devtools.lintkit import rules  # noqa: F401  (registers rules)

__all__ = [
    "ModuleUnderLint",
    "Rule",
    "SYNTAX_ERROR_RULE_ID",
    "Severity",
    "Violation",
    "check_module",
    "register",
    "registered_rules",
    "rules",
]
