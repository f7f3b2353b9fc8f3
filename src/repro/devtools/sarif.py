"""SARIF 2.1.0 output for ``urllc5g analyze --format sarif``.

`SARIF <https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html>`_
is the interchange format code scanners upload to review UIs; emitting
it lets every analyze pass feed GitHub code scanning and any SARIF
viewer.  The writer is a pure function from violations + rule
metadata to the document, so tests can assert on the exact shape.

The driver carries the ``urllc5g-<verb>`` tool name, the shared
:data:`TOOL_VERSION` (also stamped into the distcheck manifest) and a
sorted, index-referenced rule table.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping, Sequence

from repro.devtools.lintkit.core import Severity, Violation

__all__ = ["SARIF_SCHEMA_URI", "SARIF_VERSION", "TOOL_VERSION",
           "sarif_document", "render_sarif"]

SARIF_SCHEMA_URI = "https://json.schemastore.org/sarif-2.1.0.json"
SARIF_VERSION = "2.1.0"

#: One version for every ``urllc5g-*`` driver; tracks the project
#: version in pyproject.toml so merged artifacts agree on provenance.
TOOL_VERSION = "1.0.0"

#: Severity -> SARIF ``level`` (the two vocabularies coincide for the
#: levels this project uses; "none" exists in SARIF but is never emitted).
_LEVELS = {"note": "note", "warning": "warning", "error": "error"}


def _level(severity: str) -> str:
    return _LEVELS.get(str(severity), "warning")


def sarif_document(violations: Sequence[Violation], *,
                   tool_name: str,
                   tool_version: str = TOOL_VERSION,
                   rules: Mapping[str, str] | None = None,
                   information_uri: str | None = None) -> dict:
    """Build a SARIF 2.1.0 document as a plain dict.

    ``rules`` maps rule id -> one-line description; rule ids that appear
    in ``violations`` but not in ``rules`` are added with an empty
    description so every result can reference a rule object by index,
    as the spec recommends.  A rule's ``defaultConfiguration.level`` is
    the severity of its findings, or "error" when it has none.
    """
    rules = dict(rules or {})
    rule_severities: dict[str, str] = {}
    for violation in violations:
        rules.setdefault(violation.rule_id, "")
        rule_severities.setdefault(violation.rule_id, violation.severity)
    rule_ids = sorted(rules)
    rule_index = {rule_id: i for i, rule_id in enumerate(rule_ids)}

    rule_objects = [
        {
            "id": rule_id,
            "shortDescription": {"text": rules[rule_id] or rule_id},
            "defaultConfiguration": {
                "level": _level(rule_severities.get(rule_id,
                                                    Severity.ERROR)),
            },
        }
        for rule_id in rule_ids
    ]
    results = [
        {
            "ruleId": violation.rule_id,
            "ruleIndex": rule_index[violation.rule_id],
            "level": _level(violation.severity),
            "message": {"text": violation.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": violation.path,
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {
                            "startLine": max(violation.line, 1),
                            # SARIF columns are 1-based; violations are 0-based.
                            "startColumn": violation.col + 1,
                        },
                    },
                }
            ],
        }
        for violation in violations
    ]
    driver: dict = {
        "name": tool_name,
        "version": tool_version,
        "rules": rule_objects,
    }
    if information_uri:
        driver["informationUri"] = information_uri
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {"driver": driver},
                "results": results,
                "columnKind": "utf16CodeUnits",
            }
        ],
    }


def render_sarif(violations: Iterable[Violation], *,
                 tool_name: str,
                 tool_version: str = TOOL_VERSION,
                 rules: Mapping[str, str] | None = None,
                 information_uri: str | None = None) -> str:
    """The SARIF document serialised with stable key order."""
    document = sarif_document(
        list(violations), tool_name=tool_name, tool_version=tool_version,
        rules=rules, information_uri=information_uri)
    return json.dumps(document, indent=2, sort_keys=True)
