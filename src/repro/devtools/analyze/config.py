"""Load analyzer configuration from ``pyproject.toml``.

One ``[tool.urllc5g.analyze]`` table configures every pass (the
per-module lint rules, units, purity, detsan, distcheck)::

    [tool.urllc5g.analyze]
    ignore = []                        # rule ids disabled, any pass
    exclude = ["*/fixtures/*"]         # path globs never analyzed
    baseline = "analyze-baseline.json" # reviewed accepted findings
    cache = ".urllc5g-analyze-cache.json"

    [tool.urllc5g.analyze.distcheck]   # the distributability contract
    allow-env = ["URLLC5G_*"]          # reviewed env-var names
    refuse-scenarios = ["chaos-selftest"]
    allow-globals = []                 # reviewed mutable-state writers
    sanctioned-writers = ["repro.runner.cache.*"]

Relative ``baseline``/``cache`` paths are anchored at the pyproject's
directory, so ``--config /elsewhere/pyproject.toml`` honors the
reviewed baseline from any working directory.  ``allow-env`` patterns
match environment-variable names; ``allow-globals`` and
``sanctioned-writers`` match function qualnames (fnmatch globs).
Per-line/per-file escapes use ``# analyze: disable=RULE`` pragmas (see
docs/ANALYSIS.md); the baseline file is the reviewed bulk mechanism.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from pathlib import Path

try:
    import tomllib
except ImportError:  # pragma: no cover - Python 3.10 fallback
    tomllib = None  # type: ignore[assignment]

__all__ = ["AnalyzeConfig", "find_pyproject", "load_analyze_config"]

#: The reviewed env-var contract: runner knobs are snapshot-managed.
DEFAULT_ALLOW_ENV = ("URLLC5G_*",)


@dataclass
class AnalyzeConfig:
    """Which findings count where; see ``[tool.urllc5g.analyze]``."""

    ignore: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()
    baseline: str | None = None
    cache: str | None = None
    allow_env: tuple[str, ...] = DEFAULT_ALLOW_ENV
    refuse_scenarios: tuple[str, ...] = ()
    allow_globals: tuple[str, ...] = ()
    sanctioned_writers: tuple[str, ...] = ()

    def is_excluded(self, path: str) -> bool:
        return any(_glob_match(path, pattern) for pattern in self.exclude)


def _glob_match(path: str, pattern: str) -> bool:
    """Match ``pattern`` against the path or any of its suffix segments.

    ``"sim/rng.py"`` matches ``src/repro/sim/rng.py`` so config entries
    stay stable when the tree is analyzed from a different root.
    """
    normalized = Path(path).as_posix()
    if fnmatch.fnmatch(normalized, pattern):
        return True
    parts = normalized.split("/")
    return any(fnmatch.fnmatch("/".join(parts[i:]), pattern)
               for i in range(len(parts)))


def find_pyproject(start: str | Path) -> Path | None:
    """Nearest ``pyproject.toml`` at or above ``start``."""
    current = Path(start).resolve()
    if current.is_file():
        current = current.parent
    for directory in (current, *current.parents):
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None


_DISTCHECK_KEYS = {
    "allow-env": "allow_env",
    "refuse-scenarios": "refuse_scenarios",
    "allow-globals": "allow_globals",
    "sanctioned-writers": "sanctioned_writers",
}


def load_analyze_config(pyproject: str | Path | None = None,
                        start: str | Path = ".") -> AnalyzeConfig:
    """Build an :class:`AnalyzeConfig` from the nearest pyproject.

    Missing file, missing table, or a pre-3.11 interpreter all yield
    the default config.
    """
    if tomllib is None:  # pragma: no cover - Python 3.10 fallback
        return AnalyzeConfig()
    path = Path(pyproject) if pyproject is not None else (
        find_pyproject(start))
    if path is None or not path.is_file():
        return AnalyzeConfig()
    with open(path, "rb") as handle:
        data = tomllib.load(handle)
    table = data.get("tool", {}).get("urllc5g", {}).get("analyze", {})
    if not isinstance(table, dict):
        raise ValueError("[tool.urllc5g.analyze] must be a table")
    kwargs: dict[str, object] = {}
    for key in ("baseline", "cache"):
        value = table.get(key)
        if value is None:
            continue
        if not isinstance(value, str):
            raise ValueError(
                f"[tool.urllc5g.analyze] {key} must be a string")
        kwargs[key] = str(path.parent / value)
    for key in ("ignore", "exclude"):
        if key in table:
            kwargs[key] = _as_str_tuple(table[key], key)
    contract = table.get("distcheck", {})
    if not isinstance(contract, dict):
        raise ValueError(
            "[tool.urllc5g.analyze.distcheck] must be a table")
    for key, attr in _DISTCHECK_KEYS.items():
        if key in contract:
            kwargs[attr] = _as_str_tuple(contract[key], f"distcheck {key}")
    return AnalyzeConfig(**kwargs)  # type: ignore[arg-type]


def _as_str_tuple(value: object, key: str) -> tuple[str, ...]:
    if (not isinstance(value, list)
            or not all(isinstance(item, str) for item in value)):
        raise ValueError(
            f"[tool.urllc5g.analyze] {key} must be a list of strings")
    return tuple(value)
