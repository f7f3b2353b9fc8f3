"""The lint pass of ``urllc5g analyze``: rules, suppressions, config,
reporters, caching."""

import json
import shutil
from pathlib import Path

import pytest

from repro.devtools.analyze import (
    PARSE_HOOKS,
    AnalyzeConfig,
    analyze_paths,
    load_analyze_config,
    load_baseline,
    render_analysis_json,
    render_analysis_sarif,
    render_analysis_text,
    write_baseline,
)
from repro.devtools.lintkit import (
    SYNTAX_ERROR_RULE_ID,
    Severity,
    registered_rules,
)

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

EXPECTED_RULES = {
    "no-wall-clock",
    "rng-discipline",
    "unit-suffix-mixing",
    "no-float-tick-equality",
    "unordered-iteration-before-schedule",
    "public-api-exports",
    "fault-streams-named",
}


def lint_findings(report):
    """The report's findings from the lint pass (other passes dropped)."""
    return [v for v in report.violations if v.rule_id in EXPECTED_RULES]


def analyze_source(tmp_path, source, name="mod.py", config=None):
    target = tmp_path / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    return analyze_paths([target], config, use_cache=False)


def rule_ids_in(tmp_path, source, name="mod.py"):
    report = analyze_source(tmp_path, source, name)
    return {v.rule_id for v in lint_findings(report)}


def test_all_domain_rules_are_registered():
    assert EXPECTED_RULES <= set(registered_rules())


# ----------------------------------------------------------------------
# the fixture files each trip exactly their intended rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fixture, expected_rule, expected_count", [
    ("bad_wall_clock.py", "no-wall-clock", 3),
    ("bad_rng.py", "rng-discipline", 5),
    ("bad_units.py", "unit-suffix-mixing", 2),
    ("bad_float_equality.py", "no-float-tick-equality", 2),
    ("bad_iteration.py", "unordered-iteration-before-schedule", 2),
    ("bad_exports.py", "public-api-exports", 1),
    ("bad_fault_stream_names.py", "fault-streams-named", 3),
])
def test_fixture_caught_by_correct_rule(fixture, expected_rule,
                                        expected_count):
    report = analyze_paths([FIXTURES / fixture], use_cache=False)
    assert report.suppressed == 0
    violations = lint_findings(report)
    by_rule = {v.rule_id for v in violations}
    assert by_rule == {expected_rule}, (
        f"{fixture}: expected only {expected_rule}, got {sorted(by_rule)}")
    assert len(violations) == expected_count


def test_fixture_directory_linted_as_a_tree():
    report = analyze_paths([FIXTURES], use_cache=False)
    assert report.files_checked == 8
    lint_and_syntax = [v for v in report.violations
                       if v.rule_id in EXPECTED_RULES | {
                           SYNTAX_ERROR_RULE_ID}]
    assert {v.rule_id for v in lint_and_syntax} == (
        EXPECTED_RULES | {SYNTAX_ERROR_RULE_ID})
    # 18 rule findings plus the one unparseable file, reported once.
    assert len(lint_and_syntax) == 19
    assert report.exit_code == 1


# ----------------------------------------------------------------------
# unparseable files are findings, not crashes
# ----------------------------------------------------------------------
def test_syntax_error_reported_as_violation_not_traceback():
    report = analyze_paths([FIXTURES / "bad_syntax.py"], use_cache=False)
    assert report.exit_code == 1
    assert len(report.violations) == 1
    violation = report.violations[0]
    assert violation.rule_id == SYNTAX_ERROR_RULE_ID
    assert violation.severity == Severity.ERROR
    assert violation.line == 3  # points at the malformed def
    assert "could not parse" in violation.message


def test_lint_continues_past_a_broken_file(tmp_path):
    (tmp_path / "broken.py").write_text("def broken(:\n",
                                        encoding="utf-8")
    (tmp_path / "ok.py").write_text("__all__ = []\nimport random\n",
                                    encoding="utf-8")
    report = analyze_paths([tmp_path], use_cache=False)
    assert report.files_checked == 2
    assert {v.rule_id for v in report.violations} == {
        SYNTAX_ERROR_RULE_ID, "rng-discipline"}


def test_null_bytes_reported_as_syntax_error(tmp_path):
    (tmp_path / "nul.py").write_text("x = 1\x00\n", encoding="utf-8")
    report = analyze_paths([tmp_path], use_cache=False)
    assert [v.rule_id for v in report.violations] == [
        SYNTAX_ERROR_RULE_ID]


# ----------------------------------------------------------------------
# Severity is an ordered enum
# ----------------------------------------------------------------------
def test_severity_orders_by_rank_not_lexicographically():
    # Alphabetically "error" < "note"; by severity it is the maximum.
    assert Severity.NOTE < Severity.WARNING < Severity.ERROR
    assert Severity.ERROR > Severity.NOTE
    assert max(Severity) is Severity.ERROR
    ordered = sorted([Severity.ERROR, Severity.NOTE, Severity.WARNING])
    assert ordered == [Severity.NOTE, Severity.WARNING, Severity.ERROR]


def test_severity_compares_against_plain_strings():
    # Config files hold plain strings; ranking must still apply.
    assert Severity.ERROR >= "warning"
    assert Severity.NOTE < "warning"
    assert Severity.WARNING == "warning"
    assert Severity("error") is Severity.ERROR


def test_severity_renders_as_its_bare_value():
    assert str(Severity.ERROR) == "error"
    assert f"{Severity.WARNING}" == "warning"
    assert json.dumps({"severity": Severity.NOTE}) == (
        '{"severity": "note"}')


# ----------------------------------------------------------------------
# clean code stays clean
# ----------------------------------------------------------------------
def test_clean_simulation_code_passes(tmp_path):
    source = '''"""A well-behaved component."""
import numpy as np

__all__ = ["Component"]


class Component:
    def __init__(self, sim, rng: np.random.Generator):
        self.sim = sim
        self.rng = rng

    def fire(self, delay_us: float) -> None:
        from repro.phy.timebase import tc_from_us
        self.sim.call_in(tc_from_us(delay_us), self._on_fire)

    def _on_fire(self) -> None:
        pass
'''
    assert rule_ids_in(tmp_path, source) == set()


def test_conversion_calls_reconcile_units(tmp_path):
    source = ('__all__ = []\n'
              'def f(slot_tc, margin_us, tc_from_us):\n'
              '    return slot_tc + tc_from_us(margin_us)\n')
    assert rule_ids_in(tmp_path, source) == set()


def test_sorted_set_iteration_is_fine(tmp_path):
    source = ('__all__ = []\n'
              'def f(sim, ues):\n'
              '    for ue in sorted(set(ues)):\n'
              '        sim.schedule(0, ue)\n')
    assert rule_ids_in(tmp_path, source) == set()


def test_rng_parameter_and_closure_are_fine(tmp_path):
    source = ('__all__ = []\n'
              'def outer(rng):\n'
              '    def inner():\n'
              '        return rng.normal()\n'
              '    return inner\n')
    assert rule_ids_in(tmp_path, source) == set()


# ----------------------------------------------------------------------
# suppressions: the one ``# analyze:`` pragma grammar
# ----------------------------------------------------------------------
def test_inline_pragma_suppresses_one_line(tmp_path):
    source = ('__all__ = []\n'
              'import time\n'
              'def f():\n'
              '    return time.time()  # analyze: disable=no-wall-clock\n')
    report = analyze_source(tmp_path, source)
    assert report.violations == []
    assert report.suppressed == 1


def test_file_pragma_suppresses_whole_file(tmp_path):
    source = ('# analyze: disable-file=no-wall-clock\n'
              '__all__ = []\n'
              'import time\n'
              'def f():\n'
              '    return time.time()\n')
    assert analyze_source(tmp_path, source).violations == []


def test_pragma_only_silences_the_named_rule(tmp_path):
    source = ('__all__ = []\n'
              'import random  # analyze: disable=no-wall-clock\n')
    assert rule_ids_in(tmp_path, source) == {"rng-discipline"}


def test_retired_lint_pragma_suppresses_nothing(tmp_path):
    source = ('__all__ = []\n'
              'import time\n'
              'def f():\n'
              '    return time.time()  # lint: disable=no-wall-clock\n')
    report = analyze_source(tmp_path, source)
    assert [v.rule_id for v in report.violations] == ["no-wall-clock"]
    assert report.suppressed == 0


# ----------------------------------------------------------------------
# configuration: the one ``[tool.urllc5g.analyze]`` table
# ----------------------------------------------------------------------
def test_ignore_drops_a_lint_rule(tmp_path):
    source = ('__all__ = []\n'
              'import random\n'
              'import time\n'
              'def f():\n'
              '    return time.time()\n')
    config = AnalyzeConfig(ignore=("rng-discipline",))
    report = analyze_source(tmp_path, source, config=config)
    assert {v.rule_id for v in report.violations} == {"no-wall-clock"}


def test_unknown_rule_id_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown rule"):
        analyze_source(tmp_path, "__all__ = []\n",
                       config=AnalyzeConfig(ignore=("no-such-rule",)))


def test_baseline_excuses_a_lint_finding(tmp_path):
    bad = tmp_path / "src" / "generators.py"
    bad.parent.mkdir()
    bad.write_text('__all__ = []\nimport random\n', encoding="utf-8")
    strict = analyze_paths([bad.parent], use_cache=False)
    assert strict.exit_code == 1
    baseline_file = tmp_path / "accepted.json"
    write_baseline(baseline_file, strict.violations)
    baselined = analyze_paths([bad.parent], use_cache=False,
                              baseline=load_baseline(baseline_file))
    assert baselined.exit_code == 0
    assert baselined.baselined == 1


def test_exclude_glob(tmp_path):
    bad = tmp_path / "vendored.py"
    bad.write_text("import random\n", encoding="utf-8")
    report = analyze_paths([tmp_path],
                           AnalyzeConfig(exclude=("vendored.py",)),
                           use_cache=False)
    assert report.files_checked == 0


def test_load_config_from_pyproject(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        '[tool.urllc5g.analyze]\n'
        'ignore = ["public-api-exports"]\n'
        'exclude = ["gen/*"]\n',
        encoding="utf-8")
    config = load_analyze_config(start=tmp_path)
    assert config.ignore == ("public-api-exports",)
    assert config.exclude == ("gen/*",)


def test_load_config_defaults_when_table_missing(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n",
                                             encoding="utf-8")
    config = load_analyze_config(start=tmp_path)
    assert config == AnalyzeConfig()


def test_load_config_rejects_bad_types(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        '[tool.urllc5g.analyze]\nignore = "oops"\n', encoding="utf-8")
    with pytest.raises(ValueError, match="list of strings"):
        load_analyze_config(start=tmp_path)


def test_repo_config_names_only_known_rules(tmp_path):
    config = load_analyze_config(pyproject=REPO_ROOT / "pyproject.toml")
    # analyze_paths raises on an unknown id in the ignore list.
    analyze_source(tmp_path, "__all__ = []\n", config=config)


# ----------------------------------------------------------------------
# reporters
# ----------------------------------------------------------------------
def test_text_reporter_lists_violations_and_summary():
    report = analyze_paths([FIXTURES / "bad_units.py"], use_cache=False)
    text = render_analysis_text(report)
    assert "unit-suffix-mixing" in text
    assert "bad_units.py:" in text
    assert "1 file(s) analyzed" in text


def test_json_reporter_round_trips():
    report = analyze_paths([FIXTURES / "bad_exports.py"], use_cache=False)
    payload = json.loads(render_analysis_json(report))
    assert payload["exit_code"] == 1
    assert len(payload["violations"]) == 1
    assert payload["violations"][0]["rule"] == "public-api-exports"
    assert payload["violations"][0]["line"] == 1


def test_sarif_reporter_shares_the_common_writer():
    report = analyze_paths([FIXTURES / "bad_units.py"], use_cache=False)
    document = json.loads(render_analysis_sarif(report))
    assert document["version"] == "2.1.0"
    driver = document["runs"][0]["tool"]["driver"]
    assert driver["name"] == "urllc5g-analyze"
    listed = {rule["id"] for rule in driver["rules"]}
    # Every lint rule appears, found or not.
    assert EXPECTED_RULES | {SYNTAX_ERROR_RULE_ID} <= listed
    results = document["runs"][0]["results"]
    assert {r["ruleId"] for r in results} & EXPECTED_RULES == {
        "unit-suffix-mixing"}


def test_clean_report_says_clean(tmp_path):
    report = analyze_source(tmp_path, '__all__ = []\n')
    assert report.exit_code == 0
    assert "0 finding(s)" in render_analysis_text(report)


# ----------------------------------------------------------------------
# one parse per file, and the cache replays the findings
# ----------------------------------------------------------------------
def test_cold_run_parses_each_file_once_and_warm_run_replays(tmp_path):
    tree = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, tree)
    cache_file = tmp_path / "cache.json"
    parses: list[str] = []
    PARSE_HOOKS.append(parses.append)
    try:
        cold = analyze_paths([tree], cache_path=cache_file)
        assert sorted(parses) == sorted(set(parses))
        assert len(parses) == cold.files_checked == 8
        parses.clear()
        warm = analyze_paths([tree], cache_path=cache_file)
    finally:
        PARSE_HOOKS.remove(parses.append)
    assert parses == []
    assert warm.from_cache == 8
    assert len(lint_findings(cold)) == 18
    assert lint_findings(warm) == lint_findings(cold)


# ----------------------------------------------------------------------
# the repository itself is lint-clean
# ----------------------------------------------------------------------
def test_src_tree_is_lint_clean():
    config = load_analyze_config(pyproject=REPO_ROOT / "pyproject.toml")
    report = analyze_paths([REPO_ROOT / "src"], config, use_cache=False)
    assert report.exit_code == 0, render_analysis_text(report)
    assert lint_findings(report) == []
    # The reviewed exceptions live in analyze-baseline.json, not in
    # scattered pragma comments: the src tree must contain none.
    assert report.suppressed == 0


# ----------------------------------------------------------------------
# fault-streams-named delegates name resolution to the detsan resolver
# ----------------------------------------------------------------------
def test_fault_stream_fstring_with_literal_prefix_is_clean(tmp_path):
    source = (
        "class Injector:\n"
        "    def __init__(self, rngs, kind, index):\n"
        "        self.rng = rngs.stream(f\"fault.{kind}.{index}\")\n"
    )
    assert "fault-streams-named" not in rule_ids_in(
        tmp_path, source, "faults/injectors.py")


def test_fault_stream_dynamic_name_reported_as_unresolvable(tmp_path):
    source = (
        "def acquire(rngs, name):\n"
        "    return rngs.stream(name)\n"
    )
    report = analyze_source(tmp_path, source, "faults/dynamic.py")
    hits = [v for v in report.violations
            if v.rule_id == "fault-streams-named"]
    assert len(hits) == 1
    assert "resolved statically" in hits[0].message


def test_fault_stream_resolved_template_in_message(tmp_path):
    source = (
        "def acquire(rngs, index):\n"
        "    return rngs.stream(f\"link.{index}\")\n"
    )
    report = analyze_source(tmp_path, source, "faults/wrongprefix.py")
    hits = [v for v in report.violations
            if v.rule_id == "fault-streams-named"]
    assert len(hits) == 1
    assert "'link.{*}'" in hits[0].message
