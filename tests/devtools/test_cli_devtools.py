"""CLI wiring: ``urllc5g analyze``/``check``."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.devtools.lintkit import registered_rules

FIXTURES = Path(__file__).parent / "fixtures"
CROSSMOD = Path(__file__).parent / "fixtures_analyze" / "crossmod"
REPO_ROOT = Path(__file__).resolve().parents[2]


def test_lint_src_is_clean_and_exits_zero(capsys):
    code = main(["analyze", str(REPO_ROOT / "src"), "--no-cache",
                 "--config", str(REPO_ROOT / "pyproject.toml")])
    out = capsys.readouterr().out
    assert code == 0, out
    assert not [rule for rule in registered_rules() if f"[{rule}]" in out]


def test_lint_fixture_violations_exit_nonzero(capsys):
    code = main(["analyze", str(FIXTURES), "--no-config", "--no-cache"])
    out = capsys.readouterr().out
    assert code == 1
    assert "no-wall-clock" in out
    assert "rng-discipline" in out


def test_lint_json_format(capsys):
    code = main(["analyze", str(FIXTURES / "bad_exports.py"),
                 "--no-config", "--no-cache", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert len(payload["violations"]) == 1
    assert payload["violations"][0]["rule"] == "public-api-exports"


def test_lint_ignore_disables_rule(tmp_path, capsys):
    config = tmp_path / "pyproject.toml"
    config.write_text('[tool.urllc5g.analyze]\n'
                      'ignore = ["public-api-exports"]\n',
                      encoding="utf-8")
    code = main(["analyze", str(FIXTURES / "bad_exports.py"),
                 "--config", str(config), "--no-cache"])
    out = capsys.readouterr().out
    assert code == 0, out


def test_lint_sarif_format(capsys):
    code = main(["analyze", str(FIXTURES / "bad_exports.py"),
                 "--no-config", "--no-cache", "--format", "sarif"])
    document = json.loads(capsys.readouterr().out)
    assert code == 1
    assert document["version"] == "2.1.0"
    run = document["runs"][0]
    assert run["tool"]["driver"]["name"] == "urllc5g-analyze"
    assert [r["ruleId"] for r in run["results"]] == ["public-api-exports"]


def test_analyze_src_is_clean_and_exits_zero(capsys):
    code = main(["analyze", str(REPO_ROOT / "src"), "--no-cache",
                 "--config", str(REPO_ROOT / "pyproject.toml")])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "0 finding(s)" in out


def test_analyze_fixture_violations_exit_nonzero(capsys):
    code = main(["analyze", str(CROSSMOD), "--no-config", "--no-cache"])
    out = capsys.readouterr().out
    assert code == 1
    assert "cross-unit-arithmetic" in out
    assert "transitive-wall-clock" in out


def test_analyze_sarif_format(capsys):
    code = main(["analyze", str(CROSSMOD), "--no-config", "--no-cache",
                 "--format", "sarif"])
    document = json.loads(capsys.readouterr().out)
    assert code == 1
    driver = document["runs"][0]["tool"]["driver"]
    assert driver["name"] == "urllc5g-analyze"
    assert document["runs"][0]["results"]


def test_analyze_write_then_use_baseline(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    code = main(["analyze", str(CROSSMOD), "--no-config", "--no-cache",
                 "--write-baseline", str(baseline)])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    code = main(["analyze", str(CROSSMOD), "--no-config", "--no-cache",
                 "--baseline", str(baseline)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "baselined" in out


def test_analyze_write_baseline_reports_the_entries_written(tmp_path,
                                                           capsys):
    source = tmp_path / "src"
    source.mkdir()
    (source / "clock.py").write_text(
        'import time\n\n__all__ = ["f"]\n\n\n'
        "def f():\n    return time.perf_counter() - time.perf_counter()\n",
        encoding="utf-8")
    argv = ["analyze", str(source), "--no-config", "--no-cache"]
    assert main(argv + ["--format", "json"]) == 1
    document = json.loads(capsys.readouterr().out)
    baseline = tmp_path / "baseline.json"
    assert main(argv + ["--write-baseline", str(baseline)]) == 0
    entries = json.loads(baseline.read_text(encoding="utf-8"))["findings"]
    # The two wall-clock reads share one fingerprint.
    assert len(entries) < len(document["violations"])
    assert f"wrote {len(entries)} finding(s)" in capsys.readouterr().out


def test_analyze_missing_path_is_an_error(capsys):
    code = main(["analyze", "no/such/dir"])
    assert code == 2
    assert "no such path" in capsys.readouterr().err


def test_analyze_config_anchors_paths_outside_the_cwd(
        tmp_path, monkeypatch, capsys):
    project = tmp_path / "proj"
    (project / "src").mkdir(parents=True)
    (project / "src" / "mod.py").write_text(
        '__all__ = ["f"]\n\n\n'
        "def f(a_ms, b_us):\n    return a_ms + b_us\n", encoding="utf-8")
    (project / "pyproject.toml").write_text(
        "[tool.urllc5g.analyze]\n"
        'baseline = "accepted.json"\n'
        'cache = ".cache.json"\n', encoding="utf-8")
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    argv = ["analyze", str(project / "src"),
            "--config", str(project / "pyproject.toml")]
    assert main(argv) == 1
    assert main(argv + ["--write-baseline",
                        str(project / "accepted.json")]) == 0
    capsys.readouterr()
    # The configured baseline and cache resolve next to the pyproject,
    # not in the invocation cwd.  Two findings: the units pass and the
    # lint pass's unit-suffix-mixing both flag the one line.
    assert main(argv) == 0
    assert "2 baselined" in capsys.readouterr().out
    assert (project / ".cache.json").is_file()
    assert list(elsewhere.iterdir()) == []


def test_distcheck_src_certifies_and_writes_manifest(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    code = main(["analyze", str(REPO_ROOT / "src"),
                 "--config", str(REPO_ROOT / "pyproject.toml"),
                 "--manifest", str(manifest)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "scenario certification" in out
    payload = json.loads(manifest.read_text(encoding="utf-8"))
    assert payload["tool"] == "urllc5g-distcheck"
    assert payload["scenarios"]["chaos-selftest"]["status"] == "refused"
    assert all(entry["status"] != "failed"
               for entry in payload["scenarios"].values())


def test_checked_in_graph_and_manifest_match_src(tmp_path, capsys):
    # docs/stream-ownership.dot and distcheck-manifest.json are
    # rendered from src/; a source change that moves either must
    # regenerate them (see docs/ANALYSIS.md).
    manifest = tmp_path / "manifest.json"
    code = main(["analyze", str(REPO_ROOT / "src"),
                 "--config", str(REPO_ROOT / "pyproject.toml"),
                 "--format", "dot", "--manifest", str(manifest)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (REPO_ROOT / "docs" / "stream-ownership.dot").read_text(
        encoding="utf-8")
    assert manifest.read_bytes() == \
        (REPO_ROOT / "distcheck-manifest.json").read_bytes()


HOST_STATEFUL_PROBE = (
    "import os\n"
    "\n"
    "from repro.runner.scenarios import scenario\n"
    "\n"
    "\n"
    '@scenario("env-probe")\n'
    "def env_probe(params, seed):\n"
    '    return {"tag": os.environ.get("EXPERIMENT_TAG")}\n')


def test_distcheck_host_stateful_scenario_exits_one(tmp_path, capsys):
    # The CI regression contract: a scenario reaching undeclared host
    # state must fail certification with exit code 1.
    (tmp_path / "probe.py").write_text(HOST_STATEFUL_PROBE,
                                       encoding="utf-8")
    code = main(["analyze", str(tmp_path), "--no-config", "--no-cache"])
    out = capsys.readouterr().out
    assert code == 1
    assert "dist-host-state" in out
    assert "failed" in out


def test_distcheck_write_then_use_baseline(tmp_path, capsys):
    (tmp_path / "state.py").write_text(
        "from repro.runner.scenarios import scenario\n"
        "\n"
        "_SEEN = []\n"
        "\n"
        "\n"
        '@scenario("hoarder")\n'
        "def hoarder(params, seed):\n"
        "    _SEEN.append(seed)\n"
        "    return {\"count\": len(_SEEN)}\n",
        encoding="utf-8")
    baseline = tmp_path / "baseline.json"
    code = main(["analyze", str(tmp_path), "--no-config", "--no-cache",
                 "--write-baseline", str(baseline)])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    code = main(["analyze", str(tmp_path), "--no-config", "--no-cache",
                 "--baseline", str(baseline)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "baselined-findings" in out


@pytest.mark.parametrize("verb", ["detsan", "distcheck", "lint"])
def test_folded_verbs_are_gone(verb, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([verb, "src"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_sarif_metadata_is_unified_across_all_verbs(capsys):
    main(["analyze", str(FIXTURES), "--no-config", "--no-cache",
          "--format", "sarif"])
    document = json.loads(capsys.readouterr().out)
    # One driver for every pass: the urllc5g-analyze name, the shared
    # version, a docs link and one rule table listing the lint rules
    # beside the whole-program ones.
    driver = document["runs"][0]["tool"]["driver"]
    assert driver["name"] == "urllc5g-analyze"
    assert driver["informationUri"]
    assert driver["version"] == "1.0.0"
    listed = {rule["id"] for rule in driver["rules"]}
    assert set(registered_rules()) <= listed
    assert {"cross-unit-arithmetic", "detsan-shared-stream",
            "dist-host-state"} <= listed


def test_check_all_aggregates_the_four_gates(capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    code = main(["check", "--all"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "analyze" in out
    assert "8 baselined" in out
    assert "FAIL" not in out
    assert "detsan streams:" in out
    assert "distcheck scenarios:" in out


def test_check_all_outside_the_repo_root_is_an_error(
        tmp_path, capsys, monkeypatch):
    # No src/ here: the gate must not pass over an empty tree.
    monkeypatch.chdir(tmp_path)
    code = main(["check", "--all"])
    captured = capsys.readouterr()
    assert code == 2
    assert "no such path: src" in captured.err
    assert "PASS" not in captured.out


def test_check_all_fails_on_a_host_stateful_scenario(
        tmp_path, capsys, monkeypatch):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "probe.py").write_text(HOST_STATEFUL_PROBE,
                                               encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = main(["check", "--all"])
    out = capsys.readouterr().out
    assert code == 1, out
    assert "1 failed" in out


def test_check_determinism_passes(capsys):
    code = main(["check", "--determinism", "--seed", "3",
                 "--packets", "8"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "PASS" in out


def test_check_without_sanitizer_flag(capsys):
    code = main(["check"])
    assert code == 2
    assert "--determinism" in capsys.readouterr().out
