"""Analysis orchestration: one project load, five passes, one report.

:func:`analyze_paths` is the one entry point the CLI and tests use.
It loads the project model once (through the incremental cache when
enabled) and runs every pass over it:

- **lint** (:mod:`repro.devtools.lintkit`): the per-module rules, run
  by the loader on the AST it parses and cached with the module
  summary, so a warm run replays them without parsing;
- **units** (:mod:`.units`) and **purity** (:mod:`.purity`);
- **detsan** (:mod:`repro.devtools.detsan.ownership`): RNG stream
  ownership, with the ownership map as its extra;
- **distcheck** (:mod:`repro.devtools.distcheck.rules`): scenario
  distributability, with per-scenario certifications as its extra.

The config ``ignore`` list, ``# analyze:`` pragmas and the reviewed
baseline are applied once, over the findings of every pass.  The
returned :class:`AnalysisReport` carries the surviving findings and
the pass extras; its ``exit_code`` is the CI gate.

Distcheck findings are folded into one verdict per scenario:

``certified``
    no findings anywhere in the scenario's reachability closure;
``baselined-findings``
    findings exist but every one is reviewed (pragma, ignore list,
    or baseline entry);
``failed``
    at least one unreviewed finding survives;
``refused``
    the scenario is listed in ``refuse-scenarios`` — deliberately
    outside the distributability contract (its findings are dropped,
    and a dispatcher must never ship its points off-host).

A finding attributed *only* to refused scenarios is dropped; one
shared with any certified scenario still gates.  Boundary and digest
findings with no scenario attribution are program-wide and are never
droppable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.devtools.lintkit.core import (
    SYNTAX_ERROR_RULE_ID,
    Severity,
    Violation,
    registered_rules,
)
from repro.devtools.analyze.baseline import Baseline, load_baseline
from repro.devtools.analyze.cache import AnalysisCache
from repro.devtools.analyze.config import AnalyzeConfig
from repro.devtools.analyze.loader import Project, load_project
from repro.devtools.analyze.purity import purity_violations
from repro.devtools.analyze.units import resolve_units, unit_violations
# Module imports, not names: the pass modules import the analyze
# package themselves, and either may be the first one imported.
from repro.devtools.detsan import ownership as detsan
from repro.devtools.distcheck import rules as distcheck

__all__ = ["ANALYZE_RULES", "AnalysisReport", "PassExtras",
           "all_rules",
           "ScenarioCertification", "analyze_paths",
           "render_analysis_text", "render_analysis_json",
           "render_analysis_sarif", "render_analysis_dot",
           "render_analysis_manifest"]

#: Rule id -> one-line description of the units and purity passes;
#: :func:`all_rules` adds the lint, detsan and distcheck tables.
ANALYZE_RULES = {
    "cross-unit-arithmetic":
        "additive arithmetic mixes two different time units",
    "cross-unit-comparison":
        "comparison between values carrying different time units",
    "cross-unit-assignment":
        "value's inferred unit contradicts the target name's suffix",
    "cross-unit-return":
        "returned value's unit contradicts the function's declared unit",
    "cross-unit-argument":
        "argument's unit contradicts the callee parameter's declared unit",
    "transitive-wall-clock":
        "callee transitively reads the wall clock",
    "transitive-global-rng":
        "callee transitively draws from process-global RNG state",
    "transitive-unordered-schedule":
        "unordered iteration transitively schedules simulator events",
    SYNTAX_ERROR_RULE_ID:
        "file could not be parsed",
}


def all_rules() -> dict[str, str]:
    """Rule id -> description for every pass (the SARIF rules array).

    Rule ids are unique across passes, so one baseline file and one
    ``ignore`` list serve them all.
    """
    lint = {rule_id: rule_cls.description
            for rule_id, rule_cls in registered_rules().items()}
    return {**lint, **ANALYZE_RULES, **detsan.DETSAN_RULES,
            **distcheck.DIST_RULES}

#: Manifest schema version; bump on any change to the payload shape.
MANIFEST_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ScenarioCertification:
    """One scenario's distributability verdict."""

    name: str
    entry: str
    status: str  # certified | baselined-findings | failed | refused
    reachable: int = 0
    findings: int = 0  # unreviewed findings surviving all filters
    reviewed: int = 0  # findings removed by ignore/pragma/baseline


@dataclass
class PassExtras:
    """What the detsan and distcheck passes yield besides findings."""

    ownership: detsan.OwnershipMap
    certifications: list[ScenarioCertification]
    #: distcheck findings dropped because only refused scenarios reach them
    refused_findings: int
    #: dist-* finding -> names of the scenarios reaching it
    attribution: dict[Violation, frozenset[str]] = field(repr=False)


@dataclass
class AnalysisReport:
    """The outcome of one whole-program analysis run."""

    violations: list[Violation]
    extras: PassExtras
    files_checked: int = 0
    parsed: int = 0
    from_cache: int = 0
    suppressed: int = 0
    baselined: int = 0

    @property
    def errors(self) -> list[Violation]:
        return [v for v in self.violations
                if v.severity >= Severity.ERROR]

    @property
    def exit_code(self) -> int:
        return 1 if self.errors else 0

    def scenarios_for(self, violation: Violation) -> frozenset[str]:
        """The scenarios whose closure reaches a distcheck finding."""
        return self.extras.attribution.get(violation, frozenset())


def _syntax_violations(project: Project) -> list[Violation]:
    violations = []
    for module in project.modules:
        error = module.parse_error
        if error is None:
            continue
        violations.append(Violation(
            path=module.path, line=error["line"], col=error["col"],
            rule_id=SYNTAX_ERROR_RULE_ID, severity=Severity.ERROR,
            message=f"could not parse file: {error['message']}"))
    return violations


def _lint_violations(project: Project) -> list[Violation]:
    return [Violation(path=module.path, line=found["line"],
                      col=found["col"], rule_id=found["rule"],
                      severity=Severity(found["severity"]),
                      message=found["message"])
            for module in project.modules for found in module.lint]


def _apply_pragmas(project: Project, violations: list[Violation]
                   ) -> tuple[list[Violation], int]:
    by_path = {module.path: module for module in project.modules}
    kept: list[Violation] = []
    suppressed = 0
    for violation in violations:
        module = by_path.get(violation.path)
        if module is not None:
            file_off = set(module.file_pragmas)
            line_off = set(module.line_pragmas.get(violation.line, ()))
            off = file_off | line_off
            if violation.rule_id in off or "all" in off:
                suppressed += 1
                continue
        kept.append(violation)
    return kept, suppressed


def _per_scenario_counts(violations: list[Violation],
                         attribution: dict[Violation, frozenset[str]]
                         ) -> dict[str, int]:
    counts: dict[str, int] = {}
    for violation in violations:
        for name in attribution.get(violation, frozenset()):
            counts[name] = counts.get(name, 0) + 1
    return counts


def _certify(cert: distcheck.CertificationMap, refuse: set[str],
             before: dict[str, int], after: dict[str, int]
             ) -> list[ScenarioCertification]:
    """Fold per-scenario finding counts, taken before and after the
    review filters, into one verdict per scenario."""
    certifications = []
    for entry in sorted(cert.entries, key=lambda e: e.name):
        if entry.name in refuse:
            status = "refused"
            found = reviewed = 0
        else:
            found = after.get(entry.name, 0)
            reviewed = before.get(entry.name, 0) - found
            status = ("failed" if found
                      else "baselined-findings" if reviewed
                      else "certified")
        certifications.append(ScenarioCertification(
            name=entry.name, entry=entry.qualname, status=status,
            reachable=cert.closure_sizes.get(entry.name, 0),
            findings=found, reviewed=reviewed))
    return certifications


def analyze_paths(paths: Iterable[str | Path],
                  config: AnalyzeConfig | None = None,
                  *,
                  baseline: Baseline | None = None,
                  cache_path: str | Path | None = None,
                  use_cache: bool = True) -> AnalysisReport:
    """Run every analysis pass and aggregate one report.

    ``baseline`` overrides the config's baseline file; ``cache_path``
    overrides the config's cache location; ``use_cache=False`` disables
    the incremental cache entirely (every module is re-parsed).
    """
    config = config or AnalyzeConfig()
    unknown = set(config.ignore) - set(all_rules())
    if unknown:
        raise ValueError(
            f"unknown rule id(s) in analyze ignore: {sorted(unknown)}")
    cache: AnalysisCache | None = None
    if use_cache:
        location = cache_path if cache_path is not None else config.cache
        if location is not None:
            cache = AnalysisCache(location)
    project = load_project(paths, exclude=config.is_excluded, cache=cache)
    if cache is not None:
        cache.save()

    stream_findings, stream_map = detsan.detsan_violations(project)
    cert = distcheck.certification_map(project)
    refuse = set(config.refuse_scenarios)
    dist_findings: list[Violation] = []
    attribution: dict[Violation, frozenset[str]] = {}
    refused_findings = 0
    for violation, scenarios in distcheck.distcheck_findings(
            project, config, cert):
        if scenarios and scenarios <= refuse:
            refused_findings += 1
            continue
        dist_findings.append(violation)
        attribution[violation] = scenarios
    violations = (_syntax_violations(project)
                  + _lint_violations(project)
                  + unit_violations(project, resolve_units(project))
                  + purity_violations(project)
                  + stream_findings
                  + dist_findings)
    # Findings present before the review filters, per scenario: these
    # decide certified vs baselined-findings.
    before = _per_scenario_counts(violations, attribution)

    if config.ignore:
        ignored = set(config.ignore)
        violations = [v for v in violations if v.rule_id not in ignored]
    violations, suppressed = _apply_pragmas(project, violations)
    if baseline is None and config.baseline is not None:
        baseline = load_baseline(config.baseline)
    baselined = 0
    if baseline is not None:
        violations, baselined = baseline.filter(violations)
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))

    certifications = _certify(
        cert, refuse, before, _per_scenario_counts(violations, attribution))
    return AnalysisReport(
        violations=violations,
        extras=PassExtras(
            ownership=stream_map,
            certifications=certifications,
            refused_findings=refused_findings,
            attribution=attribution),
        files_checked=project.files_checked,
        parsed=project.parsed,
        from_cache=project.from_cache,
        suppressed=suppressed,
        baselined=baselined,
    )


def _scope_label(scope: str) -> str:
    """Short display form of a registry-scope key."""
    head = scope.split(":")[0]
    parts = head.split(".")
    return ".".join(parts[-2:]) if len(parts) > 1 else head


def render_analysis_text(report: AnalysisReport) -> str:
    """Human-readable report: the pass extras, then one finding per
    line, then a summary."""
    lines: list[str] = []
    ownership = report.extras.ownership
    if ownership.streams or ownership.acquisitions:
        lines.append("stream ownership map "
                     f"({len(ownership.streams)} stream(s), "
                     f"{ownership.resolved}/{ownership.acquisitions} "
                     "acquisition(s) resolved):")
        for info in ownership.streams:
            flags = "".join((
                " [buffered]" if info.buffered else "",
                " [shared]" if info.shared else "",
            ))
            owners = ", ".join(info.owners) or "(unconsumed)"
            lines.append(f"  {info.template:<20} -> {owners}{flags}  "
                         f"(scope {_scope_label(info.scope)})")
        lines.append("")
    if report.extras.certifications:
        lines.append(f"scenario certification "
                     f"({len(report.extras.certifications)} scenario(s)):")
        for cert in report.extras.certifications:
            if cert.status == "refused":
                detail = "(listed in refuse-scenarios)"
            else:
                detail = (f"({cert.reachable} reachable function(s), "
                          f"{cert.findings} finding(s), "
                          f"{cert.reviewed} reviewed)")
            lines.append(f"  {cert.name:<22} {cert.status:<20} {detail}")
        lines.append("")
    for violation in report.violations:
        lines.append(violation.render())
        if violation.rule_id in distcheck.DIST_RULES:
            scenarios = sorted(report.scenarios_for(violation))
            lines.append("    reached from: "
                         + (", ".join(scenarios) if scenarios
                            else "(program-wide)"))
    summary = (f"{report.files_checked} file(s) analyzed "
               f"({report.parsed} parsed, {report.from_cache} from "
               f"cache), {len(report.violations)} finding(s)")
    extras = []
    if report.suppressed:
        extras.append(f"{report.suppressed} suppressed")
    if report.baselined:
        extras.append(f"{report.baselined} baselined")
    if report.extras.refused_findings:
        extras.append(f"{report.extras.refused_findings} on refused "
                      "scenarios")
    if extras:
        summary += " (" + ", ".join(extras) + ")"
    lines.append(summary)
    return "\n".join(lines)


def render_analysis_json(report: AnalysisReport) -> str:
    """Machine-readable report for tooling."""
    ownership = report.extras.ownership
    payload = {
        "files_checked": report.files_checked,
        "parsed": report.parsed,
        "from_cache": report.from_cache,
        "suppressed": report.suppressed,
        "baselined": report.baselined,
        "refused_findings": report.extras.refused_findings,
        "exit_code": report.exit_code,
        "resolution": {
            "acquisitions": ownership.acquisitions,
            "resolved": ownership.resolved,
            "rate": ownership.resolution_rate,
        },
        "streams": [
            {
                "template": info.template,
                "scope": info.scope,
                "owners": info.owners,
                "sites": [f"{path}:{line}" for path, line in info.sites],
                "buffered": info.buffered,
                "shared": info.shared,
            }
            for info in ownership.streams
        ],
        "scenarios": [
            {
                "name": cert.name,
                "entry": cert.entry,
                "status": cert.status,
                "reachable_functions": cert.reachable,
                "findings": cert.findings,
                "reviewed_findings": cert.reviewed,
            }
            for cert in report.extras.certifications
        ],
        "violations": [
            {
                "path": violation.path,
                "line": violation.line,
                "col": violation.col,
                "rule": violation.rule_id,
                "severity": str(violation.severity),
                "message": violation.message,
                "scenarios": sorted(report.scenarios_for(violation)),
            }
            for violation in report.violations
        ],
    }
    return json.dumps(payload, indent=2)


def render_analysis_sarif(report: AnalysisReport) -> str:
    """SARIF 2.1.0 document via the shared writer."""
    from repro.devtools.sarif import render_sarif

    return render_sarif(report.violations, tool_name="urllc5g-analyze",
                        rules=all_rules(),
                        information_uri="docs/ANALYSIS.md")


def render_analysis_dot(report: AnalysisReport) -> str:
    """The stream ownership graph in Graphviz dot, for docs.

    Stream nodes are ellipses (doubled border when a buffered sampler
    claims the stream exclusively), consumer components are boxes, and
    an edge means "this component draws from this stream".  Output is
    deterministic so the generated graph can live in version control.
    """
    lines = [
        "// Generated by `urllc5g analyze src/ --format dot`.",
        "digraph stream_ownership {",
        "  rankdir=LR;",
        '  node [fontname="Helvetica", fontsize=11];',
        '  edge [fontname="Helvetica", fontsize=9];',
    ]
    owners: dict[str, str] = {}
    for index, info in enumerate(report.extras.ownership.streams):
        stream_id = f"stream_{index}"
        style = ["shape=ellipse"]
        if info.buffered:
            style.append("peripheries=2")
        if info.shared:
            style.append('style=dashed')
        scope = _scope_label(info.scope)
        lines.append(f'  {stream_id} [label="{info.template}\\n({scope})", '
                     f'{", ".join(style)}];')
        for owner in info.owners:
            owner_id = owners.get(owner)
            if owner_id is None:
                owner_id = f"owner_{len(owners)}"
                owners[owner] = owner_id
                short = ".".join(owner.split(".")[-2:])
                lines.append(f'  {owner_id} [label="{short}", '
                             'shape=box];')
            attrs = ' [label="buffered"]' if info.buffered else ""
            lines.append(f"  {stream_id} -> {owner_id}{attrs};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_analysis_manifest(report: AnalysisReport) -> str:
    """The per-scenario certification manifest.

    The dispatcher contract: a point may only be shipped off-host when
    its scenario's status is ``certified`` or ``baselined-findings``.
    Deterministic (sorted keys, no timestamps) so the file is diffable
    and cacheable in CI artifacts.  ``tool`` names the manifest format
    that :mod:`repro.devtools.distcheck.manifest` reads.
    """
    from repro.devtools.sarif import TOOL_VERSION

    payload = {
        "tool": "urllc5g-distcheck",
        "tool_version": TOOL_VERSION,
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "exit_code": report.exit_code,
        "scenarios": {
            cert.name: {
                "entry": cert.entry,
                "status": cert.status,
                "distributable": cert.status in (
                    "certified", "baselined-findings"),
                "reachable_functions": cert.reachable,
                "findings": cert.findings,
                "reviewed_findings": cert.reviewed,
            }
            for cert in report.extras.certifications
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
