"""Source-file discovery for ``urllc5g analyze``.

The analyzer accepts a mix of files and directories and must visit
the same set of modules in the same (sorted, deterministic) order on
every run.  Directories are expanded recursively; ``__pycache__`` and
hidden directories are skipped.  The campaign runner's source
fingerprint walks the tree the same way.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator

__all__ = ["iter_python_files"]

#: Directory names never descended into.
_SKIP_DIRS = frozenset({"__pycache__"})


def _wanted(path: Path) -> bool:
    parts = path.parts
    return not any(part in _SKIP_DIRS or part.startswith(".")
                   for part in parts)


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths``, sorted within each root.

    Files are yielded exactly once even if roots overlap; explicit file
    arguments are yielded regardless of extension filtering rules for
    directories (they must still be ``.py``).
    """
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not _wanted(candidate.relative_to(path)):
                    continue
                resolved = candidate.resolve()
                if resolved not in seen:
                    seen.add(resolved)
                    yield candidate
        elif path.suffix == ".py":
            resolved = path.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield path
