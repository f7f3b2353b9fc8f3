"""Distributability certification: the distcheck pass and its manifest.

The distcheck pass of ``urllc5g analyze`` (:mod:`.rules`) certifies
each ``@scenario``-registered campaign entry point as safe to execute
on a remote host: no reachable writes to module-level mutable state,
no undeclared host-state observation, nothing unpicklable crossing
the pool boundary, order-stable digest material, and no filesystem
writes outside the sanctioned artifact/journal APIs.  The
per-scenario verdicts are written to ``distcheck-manifest.json``
(``urllc5g analyze --manifest``), which the campaign dispatcher reads
through :mod:`.manifest`.  See the "Distributability contract"
chapter in docs/ANALYSIS.md.

Only the manifest reader is re-exported here: the dispatcher imports
this package at runtime, and the reader must load without the
analyzer.  Import the rules from :mod:`.rules` directly.
"""

from repro.devtools.distcheck.manifest import (
    DISTRIBUTABLE_STATUSES,
    DistManifest,
    ManifestError,
    ScenarioVerdict,
    load_manifest,
)

__all__ = [
    "DISTRIBUTABLE_STATUSES",
    "DistManifest",
    "ManifestError",
    "ScenarioVerdict",
    "load_manifest",
]
