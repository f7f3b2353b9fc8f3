"""``urllc5g analyze`` — the one static-analysis driver.

This package loads *all* of ``src/`` into a project model (symbol
table + call graph) once and runs five passes over it:

- **lint** (:mod:`repro.devtools.lintkit`): the per-module domain rules
  (``no-wall-clock``, ``rng-discipline``, ``unit-suffix-mixing``, ...),
  run by the loader on the AST it already parsed and cached with the
  module summary;
- **time-unit inference** (:mod:`.units`): abstract interpretation over
  the unit lattice ``tc | ns | us | ms | s | unitless | unknown``,
  seeded from name suffixes, the :mod:`repro.phy.timebase` converter
  signatures and ``# unit:`` annotations, propagated through
  assignments, returns and call boundaries;
- **transitive purity** (:mod:`.purity`): wall-clock, global-RNG and
  unordered-iteration-before-scheduling taint propagated through the
  call graph, catching the helper-indirection cases the per-module
  rules are blind to;
- **detsan** (:mod:`repro.devtools.detsan`): the RNG stream ownership
  map and its five ``detsan-*`` rules;
- **distcheck** (:mod:`repro.devtools.distcheck`): per-scenario
  distributability certification and its five ``dist-*`` rules.

Every pass yields the lintkit :class:`~repro.devtools.lintkit.core.Violation`
shape, so one ``ignore`` list, one ``# analyze:`` pragma grammar, one
reviewed baseline and one set of text/JSON/SARIF reporters serve them
all.  See docs/ANALYSIS.md.
"""

from repro.devtools.analyze.baseline import (
    Baseline,
    load_baseline,
    write_baseline,
)
from repro.devtools.analyze.config import AnalyzeConfig, load_analyze_config
from repro.devtools.analyze.cache import AnalysisCache
from repro.devtools.analyze.engine import (
    ANALYZE_RULES,
    AnalysisReport,
    PassExtras,
    ScenarioCertification,
    analyze_paths,
    render_analysis_dot,
    render_analysis_json,
    render_analysis_manifest,
    render_analysis_sarif,
    render_analysis_text,
)
from repro.devtools.analyze.loader import PARSE_HOOKS, Project, load_project

__all__ = [
    "ANALYZE_RULES",
    "AnalysisCache",
    "AnalysisReport",
    "AnalyzeConfig",
    "Baseline",
    "PARSE_HOOKS",
    "PassExtras",
    "Project",
    "ScenarioCertification",
    "analyze_paths",
    "load_analyze_config",
    "load_baseline",
    "load_project",
    "render_analysis_dot",
    "render_analysis_json",
    "render_analysis_manifest",
    "render_analysis_sarif",
    "render_analysis_text",
    "write_baseline",
]
