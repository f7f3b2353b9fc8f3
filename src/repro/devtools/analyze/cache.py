"""Incremental analysis cache keyed by content hash.

The expensive step of whole-program analysis is parsing and summary
extraction; the global passes are cheap.  Summaries are fully
JSON-serialisable (see :class:`~repro.devtools.analyze.loader.ModuleSummary`),
so the cache stores them per file keyed by the sha256 of the file's
bytes.  On a re-run over an unchanged tree every lookup hits and
``ast.parse`` is never called — asserted in the test-suite via
:data:`repro.devtools.analyze.loader.PARSE_HOOKS`.

The cache file is stamped with :func:`analyzer_version`, a hash of the
analyzer's own source: any edit to summary extraction or to a lint
rule discards stale caches wholesale, so a summary or a finding is
never replayed from older code.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.devtools.analyze.loader import ModuleSummary

__all__ = ["DEFAULT_CACHE_PATH", "AnalysisCache", "analyzer_version"]

DEFAULT_CACHE_PATH = ".urllc5g-analyze-cache.json"

#: The ``repro.devtools`` package: every module that extracts, checks
#: or caches a summary lives under it.
_DEVTOOLS_ROOT = Path(__file__).resolve().parents[1]


def analyzer_version(root: Path = _DEVTOOLS_ROOT) -> str:
    """The cache version: sha256 over every ``*.py`` file (relative path
    and bytes) under ``root``, by default the ``repro.devtools`` source.
    """
    hasher = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        hasher.update(path.relative_to(root).as_posix().encode("utf-8"))
        hasher.update(b"\0")
        hasher.update(path.read_bytes())
        hasher.update(b"\0")
    return hasher.hexdigest()


class AnalysisCache:
    """Content-addressed store of per-module summaries."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.version = analyzer_version()
        self.entries: dict[str, dict] = {}
        self.hits = 0
        self.misses = 0
        self._dirty = False
        self._load()

    def _load(self) -> None:
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if not isinstance(payload, dict) \
                or payload.get("analyzer_version") != self.version:
            return
        entries = payload.get("entries")
        if isinstance(entries, dict):
            self.entries = entries

    def lookup(self, path: str, digest: str) -> ModuleSummary | None:
        """The stored summary for ``path`` iff its content still matches."""
        entry = self.entries.get(path)
        if entry is None or entry.get("hash") != digest:
            self.misses += 1
            return None
        try:
            summary = ModuleSummary.from_json(entry["summary"])
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return summary

    def store(self, path: str, digest: str,
              summary: ModuleSummary) -> None:
        self.entries[path] = {"hash": digest,
                              "summary": summary.to_json()}
        self._dirty = True

    def save(self) -> None:
        """Persist to disk (no-op when nothing changed)."""
        if not self._dirty:
            return
        payload = {"analyzer_version": self.version,
                   "entries": self.entries}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(payload, sort_keys=True),
                             encoding="utf-8")
        self._dirty = False
