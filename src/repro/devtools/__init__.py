"""Developer tooling for the urllc5g reproduction.

Three quality gates live here, all wired into the ``urllc5g`` CLI and CI:

- :mod:`repro.devtools.lintkit` — an AST static-analysis framework with
  per-file domain rules enforcing the invariants the paper's results
  rest on (no wall-clock reads in simulated paths, explicit RNG
  threading, time-unit suffix consistency, deterministic iteration
  order);
- :mod:`repro.devtools.analyze` — the whole-program companion: one
  project load, four passes (cross-module time units, transitive
  purity, RNG stream ownership, scenario distributability; see
  docs/ANALYSIS.md);
- :mod:`repro.devtools.determinism` — a runtime sanitizer that runs a
  scenario twice with the same seed and compares trace digests.

Shared infrastructure: :mod:`repro.devtools.walker` (file discovery)
and :mod:`repro.devtools.sarif` (SARIF 2.1.0 output).

The campaign runner imports :mod:`repro.devtools.walker` and
:mod:`repro.devtools.distcheck.manifest` at runtime, which runs this
``__init__``; it therefore re-exports only what loads without the
analyzer and the linter.  Import those from their own packages.
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
