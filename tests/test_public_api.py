"""The public API surface: exports resolve and stay consistent."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = ["repro", "repro.sim", "repro.phy", "repro.mac",
            "repro.stack", "repro.radio", "repro.net", "repro.traffic",
            "repro.baselines", "repro.analysis", "repro.core",
            "repro.devtools", "repro.devtools.lintkit",
            "repro.runner", "repro.faults"]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), package_name
    for name in package.__all__:
        assert hasattr(package, name), (
            f"{package_name}.__all__ lists {name!r} but it is missing")


def test_version():
    assert repro.__version__ == "1.0.0"


def test_headline_workflow_via_top_level_imports():
    matrix = repro.feasibility_matrix()
    text = repro.render_table1(matrix)
    assert "✓" in text
    model = repro.LatencyModel(repro.minimal_dm())
    extremes = model.extremes(repro.Direction.DL)
    assert repro.URLLC_5G.met_by_worst_case(extremes)


def test_every_public_item_has_a_docstring():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        for name in package.__all__:
            item = getattr(package, name)
            if callable(item) or isinstance(item, type):
                assert item.__doc__, (
                    f"{package_name}.{name} lacks a docstring")


def test_module_docstrings_exist():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        assert package.__doc__, f"{package_name} lacks a module docstring"


def test_runtime_does_not_import_the_analyzer():
    # The CLI entry point, the bench coordinator and every spawned
    # worker import repro.runner; none of them needs the static
    # analyzer or the linter, which together cost tens of ms to import.
    src = Path(repro.__file__).resolve().parents[1]
    code = ("import sys, repro.cli, repro.runner\n"
            "heavy = ('repro.devtools.analyze', 'repro.devtools.lintkit',\n"
            "         'repro.devtools.distcheck.rules')\n"
            "print([name for name in heavy if name in sys.modules])\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
