"""Developer tooling for the urllc5g reproduction.

Two quality gates live here, both wired into the ``urllc5g`` CLI and CI:

- :mod:`repro.devtools.analyze` — the one static-analysis driver
  (``urllc5g analyze``): one project load, five passes (the per-module
  lint rules of :mod:`repro.devtools.lintkit`, cross-module time units,
  transitive purity, RNG stream ownership, scenario
  distributability), one config table, one pragma grammar and one
  reviewed baseline; see docs/ANALYSIS.md;
- :mod:`repro.devtools.determinism` — a runtime sanitizer that runs a
  scenario twice with the same seed and compares trace digests.

Shared infrastructure: :mod:`repro.devtools.walker` (file discovery)
and :mod:`repro.devtools.sarif` (SARIF 2.1.0 output).

The campaign runner imports :mod:`repro.devtools.walker` and
:mod:`repro.devtools.distcheck.manifest` at runtime, which runs this
``__init__``; it therefore re-exports only what loads without the
analyzer.  Import the analyzer from its own package.
"""

from repro.devtools.determinism import (
    DeterminismReport,
    determinism_report,
    run_traced_scenario,
)

__all__ = [
    "DeterminismReport",
    "determinism_report",
    "run_traced_scenario",
]
