"""Whole-program analyzer: unit inference, purity, cache, SARIF."""

import json
from pathlib import Path

import pytest

from repro.devtools.analyze import (
    AnalyzeConfig,
    analyze_paths,
    load_analyze_config,
    load_baseline,
    render_analysis_json,
    render_analysis_sarif,
    render_analysis_text,
    write_baseline,
)
from repro.devtools.analyze.baseline import Baseline, fingerprint
from repro.devtools.analyze.cache import analyzer_version
from repro.devtools.analyze.loader import (
    PARSE_HOOKS,
    conversion_units,
    load_project,
    module_qualname,
    unit_of_name,
)
from repro.devtools.analyze.units import resolve_units
from repro.devtools.lintkit import Violation, registered_rules

CROSSMOD = Path(__file__).parent / "fixtures_analyze" / "crossmod"


def write_tree(tmp_path, files):
    # Each module gets an ``__all__`` appended after its own lines (so
    # line numbers hold): the lint pass's public-api-exports rule runs
    # on every analyzed file and is not what these tests exercise.
    for name, source in files.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        if source and not source.endswith("\n"):
            source += "\n"
        target.write_text(source + "__all__ = ()\n", encoding="utf-8")
    return tmp_path


def rule_ids(report):
    return {v.rule_id for v in report.violations}


#: The units-pass tests feed it expressions its per-module twin, the
#: ``unit-suffix-mixing`` lint rule, flags too; ignoring the twin keeps
#: each of those tests about one pass.
UNITS_PASS = AnalyzeConfig(ignore=("unit-suffix-mixing",))


def lint_rule_ids(report, *names):
    """Rule ids the per-module lint pass reports on files ``names``."""
    lint = set(registered_rules())
    return {v.rule_id for v in report.violations
            if v.rule_id in lint and Path(v.path).name in names}


# ----------------------------------------------------------------------
# name conventions
# ----------------------------------------------------------------------
def test_unit_of_name_suffixes():
    assert unit_of_name("budget_ms") == "ms"
    assert unit_of_name("slot_TC") == "tc"
    assert unit_of_name("x_us") == "us"
    assert unit_of_name("seconds") == "s"
    assert unit_of_name("arms") is None
    assert unit_of_name("plain") is None


def test_conversion_units_parses_converter_names():
    assert conversion_units("tc_from_us") == ("tc", "us")
    assert conversion_units("seconds_from_tc") == ("s", "tc")
    assert conversion_units("us_from_ms") == ("us", "ms")
    assert conversion_units("derive_from_scratch") is None
    assert conversion_units("plain") is None


def test_module_qualname_walks_init_chain():
    assert module_qualname(CROSSMOD / "budget.py") == "crossmod.budget"
    assert module_qualname(CROSSMOD / "__init__.py") == "crossmod"


# ----------------------------------------------------------------------
# the headline requirement: the per-module lint rules pass, the
# whole-program passes flag
# ----------------------------------------------------------------------
def test_cross_module_unit_mismatch_invisible_to_lint():
    report = analyze_paths([CROSSMOD], use_cache=False)
    assert lint_rule_ids(report, "budget.py", "phy.py") == set()
    mismatches = [v for v in report.violations
                  if v.rule_id == "cross-unit-arithmetic"]
    assert len(mismatches) == 1
    assert mismatches[0].path.endswith("budget.py")
    assert "_ms" in mismatches[0].message
    assert "_us" in mismatches[0].message


def test_transitive_wall_clock_invisible_to_lint():
    report = analyze_paths([CROSSMOD], use_cache=False)
    assert lint_rule_ids(report, "jitter.py") == set()
    leaks = [v for v in report.violations
             if v.rule_id == "transitive-wall-clock"]
    assert leaks, render_analysis_text(report)
    assert all(v.path.endswith("jitter.py") for v in leaks)
    assert "time.perf_counter()" in leaks[0].message


def test_direct_wall_clock_is_lints_finding_not_analyzes():
    # timing.py reads the clock directly: the lint pass flags it, and
    # the purity pass stays silent there (no double-reporting).
    report = analyze_paths([CROSSMOD], use_cache=False)
    assert {v.rule_id for v in report.violations
            if v.path.endswith("timing.py")} == {"no-wall-clock"}


def test_transitive_schedule_in_set_loop_invisible_to_lint():
    report = analyze_paths([CROSSMOD], use_cache=False)
    assert lint_rule_ids(report, "sched.py") == set()
    loops = [v for v in report.violations
             if v.rule_id == "transitive-unordered-schedule"]
    assert len(loops) == 1
    assert loops[0].path.endswith("sched.py")
    assert "set(...)" in loops[0].message


# ----------------------------------------------------------------------
# unit-inference details
# ----------------------------------------------------------------------
def test_return_unit_inferred_through_call_chain(tmp_path):
    write_tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/a.py": ("def base_ms():\n"
                     "    return 2.0\n"),
        "pkg/b.py": ("from pkg.a import base_ms\n"
                     "def indirection():\n"
                     "    return base_ms()\n"),
    })
    project = load_project([tmp_path / "pkg"])
    tables = resolve_units(project)
    assert tables.fn_ret["pkg.a.base_ms"] == "ms"
    assert tables.fn_ret["pkg.b.indirection"] == "ms"


def test_argument_unit_checked_against_callee_signature(tmp_path):
    write_tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/sink.py": ("def hold(duration_us):\n"
                        "    return duration_us\n"),
        "pkg/caller.py": ("from pkg.sink import hold\n"
                          "def go(timeout_ms):\n"
                          "    return hold(timeout_ms)\n"),
    })
    report = analyze_paths([tmp_path / "pkg"], use_cache=False)
    assert rule_ids(report) == {"cross-unit-argument"}
    message = report.violations[0].message
    assert "duration" not in message or "expects _us" in message


def test_suffixed_assignment_checked(tmp_path):
    write_tree(tmp_path, {
        "mod.py": ("def f(delay_ms):\n"
                   "    wait_us = delay_ms\n"
                   "    return wait_us\n"),
    })
    report = analyze_paths([tmp_path], use_cache=False)
    assert rule_ids(report) == {"cross-unit-assignment"}


def test_declared_return_unit_checked(tmp_path):
    write_tree(tmp_path, {
        "mod.py": ("def worst_case_us(budget_ms):\n"
                   "    return budget_ms\n"),
    })
    report = analyze_paths([tmp_path], use_cache=False)
    assert rule_ids(report) == {"cross-unit-return"}


def test_comparison_between_units_checked(tmp_path):
    write_tree(tmp_path, {
        "mod.py": ("def late(deadline_ms, elapsed_us):\n"
                   "    return elapsed_us > deadline_ms\n"),
    })
    report = analyze_paths([tmp_path], UNITS_PASS, use_cache=False)
    assert rule_ids(report) == {"cross-unit-comparison"}


def test_conversion_call_reconciles_units(tmp_path):
    write_tree(tmp_path, {
        "mod.py": ("from repro.phy.timebase import tc_from_us\n"
                   "def f(slot_tc, margin_us):\n"
                   "    return slot_tc + tc_from_us(margin_us)\n"),
    })
    report = analyze_paths([tmp_path], use_cache=False)
    assert report.violations == [], render_analysis_text(report)


def test_converter_rejects_wrong_source_unit(tmp_path):
    write_tree(tmp_path, {
        "mod.py": ("from repro.phy.timebase import tc_from_us\n"
                   "def f(margin_ms):\n"
                   "    return tc_from_us(margin_ms)\n"),
    })
    report = analyze_paths([tmp_path], use_cache=False)
    assert rule_ids(report) == {"cross-unit-argument"}


def test_ratio_of_same_unit_is_unitless(tmp_path):
    write_tree(tmp_path, {
        "mod.py": ("def utilisation(busy_us, window_us, total_ms):\n"
                   "    frac = busy_us / window_us\n"
                   "    return total_ms * frac + total_ms\n"),
    })
    report = analyze_paths([tmp_path], use_cache=False)
    assert report.violations == [], render_analysis_text(report)


def test_unknown_units_never_flag(tmp_path):
    write_tree(tmp_path, {
        "mod.py": ("def f(a, b_ms):\n"
                   "    return a + b_ms\n"),
    })
    report = analyze_paths([tmp_path], use_cache=False)
    assert report.violations == []


def test_transitive_global_rng(tmp_path):
    write_tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/noise.py": ("import random\n"
                         "def draw():\n"
                         "    return random.random()\n"),
        "pkg/user.py": ("from pkg.noise import draw\n"
                        "def sample_offset():\n"
                        "    return draw() * 10.0\n"),
    })
    report = analyze_paths([tmp_path / "pkg"], use_cache=False)
    leaks = [v for v in report.violations
             if v.rule_id == "transitive-global-rng"]
    assert len(leaks) == 1
    assert leaks[0].path.endswith("user.py")
    assert "random.random()" in leaks[0].message


def test_default_rng_is_not_a_taint_source(tmp_path):
    write_tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/registry.py": ("import numpy as np\n"
                            "def make_stream(seed):\n"
                            "    return np.random.default_rng(seed)\n"),
        "pkg/user.py": ("from pkg.registry import make_stream\n"
                        "def sample(seed):\n"
                        "    return make_stream(seed).normal()\n"),
    })
    report = analyze_paths([tmp_path / "pkg"], use_cache=False)
    # The direct construction is the lint pass's rng-discipline
    # finding; no transitive-global-rng taint reaches user.py.
    assert [(Path(v.path).name, v.rule_id) for v in report.violations] \
        == [("registry.py", "rng-discipline")], \
        render_analysis_text(report)


# ----------------------------------------------------------------------
# pragmas, config, baseline
# ----------------------------------------------------------------------
def test_line_pragma_suppresses_finding(tmp_path):
    write_tree(tmp_path, {
        "mod.py": ("def f(a_ms, b_us):\n"
                   "    return a_ms + b_us  # analyze: disable="
                   "cross-unit-arithmetic,unit-suffix-mixing\n"),
    })
    report = analyze_paths([tmp_path], use_cache=False)
    # One pragma grammar silences the units pass and the lint pass.
    assert report.violations == []
    assert report.suppressed == 2


def test_file_pragma_suppresses_rule_everywhere(tmp_path):
    write_tree(tmp_path, {
        "mod.py": ("# analyze: disable-file=cross-unit-arithmetic\n"
                   "def f(a_ms, b_us):\n"
                   "    return a_ms + b_us\n"
                   "def g(c_ms, d_us):\n"
                   "    return c_ms - d_us\n"),
    })
    report = analyze_paths([tmp_path], UNITS_PASS, use_cache=False)
    assert report.violations == []
    assert report.suppressed == 2


def test_unit_annotation_seeds_declared_unit(tmp_path):
    write_tree(tmp_path, {
        "mod.py": ("def f(raw):\n"
                   "    budget = raw  # unit: ms\n"
                   "    return budget + f_us(raw)\n"
                   "def f_us(raw):\n"
                   "    return 1.0\n"),
    })
    report = analyze_paths([tmp_path], use_cache=False)
    assert rule_ids(report) == {"cross-unit-arithmetic"}


def test_config_ignore_drops_rule(tmp_path):
    write_tree(tmp_path, {
        "mod.py": ("def f(a_ms, b_us):\n"
                   "    return a_ms + b_us\n"),
    })
    config = AnalyzeConfig(ignore=("cross-unit-arithmetic",))
    report = analyze_paths([tmp_path], config, use_cache=False)
    # Only the named rule goes; the lint pass's twin stays.
    assert rule_ids(report) == {"unit-suffix-mixing"}


def test_load_analyze_config_from_pyproject(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        '[tool.urllc5g.analyze]\n'
        'ignore = ["cross-unit-comparison"]\n'
        'exclude = ["gen/*"]\n'
        'baseline = "analyze-baseline.json"\n'
        'cache = ".cache.json"\n', encoding="utf-8")
    config = load_analyze_config(start=tmp_path)
    assert config.ignore == ("cross-unit-comparison",)
    assert config.exclude == ("gen/*",)
    # Relative paths anchor at the pyproject's directory.
    assert config.baseline == str(tmp_path / "analyze-baseline.json")
    assert config.cache == str(tmp_path / ".cache.json")


def test_load_analyze_config_rejects_bad_types(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        '[tool.urllc5g.analyze]\nignore = "oops"\n', encoding="utf-8")
    with pytest.raises(ValueError, match="list of strings"):
        load_analyze_config(start=tmp_path)


def test_baseline_round_trip_suppresses_known_findings(tmp_path):
    source_dir = write_tree(tmp_path / "proj", {
        "mod.py": ("def f(a_ms, b_us):\n"
                   "    return a_ms + b_us\n"),
    })
    first = analyze_paths([source_dir], UNITS_PASS, use_cache=False)
    assert first.exit_code == 1
    baseline_file = tmp_path / "baseline.json"
    write_baseline(baseline_file, first.violations)
    baseline = load_baseline(baseline_file)
    second = analyze_paths([source_dir], UNITS_PASS, baseline=baseline,
                           use_cache=False)
    assert second.exit_code == 0
    assert second.baselined == 1


def test_write_baseline_counts_entries_not_findings(tmp_path):
    # One finding reported at two lines: a single fingerprint, so the
    # file holds one entry and the returned count says so.
    twins = [Violation("pkg/mod.py", line, 4, "no-wall-clock", "error",
                       "wall-clock call time.perf_counter()")
             for line in (3, 9)]
    baseline_file = tmp_path / "baseline.json"
    assert write_baseline(baseline_file, twins) == 1
    payload = json.loads(baseline_file.read_text(encoding="utf-8"))
    assert len(payload["findings"]) == 1


def test_baseline_survives_line_shifts(tmp_path):
    source = ("def f(a_ms, b_us):\n"
              "    return a_ms + b_us\n")
    source_dir = write_tree(tmp_path / "proj", {"mod.py": source})
    first = analyze_paths([source_dir], UNITS_PASS, use_cache=False)
    baseline = Baseline({fingerprint(v) for v in first.violations})
    # Prepend a line: the finding moves but stays baselined.
    write_tree(source_dir, {"mod.py": '"""doc."""\n' + source})
    second = analyze_paths([source_dir], UNITS_PASS, baseline=baseline,
                           use_cache=False)
    assert second.exit_code == 0
    assert second.baselined == 1


def test_new_finding_escapes_the_baseline(tmp_path):
    source_dir = write_tree(tmp_path / "proj", {
        "mod.py": ("def f(a_ms, b_us):\n"
                   "    return a_ms + b_us\n"),
    })
    first = analyze_paths([source_dir], UNITS_PASS, use_cache=False)
    baseline = Baseline({fingerprint(v) for v in first.violations})
    write_tree(source_dir, {
        "other.py": "def g(c_tc, d_ns):\n    return c_tc - d_ns\n"})
    second = analyze_paths([source_dir], UNITS_PASS, baseline=baseline,
                           use_cache=False)
    assert second.exit_code == 1
    assert len(second.violations) == 1
    assert second.violations[0].path.endswith("other.py")


# ----------------------------------------------------------------------
# syntax errors
# ----------------------------------------------------------------------
def test_unparseable_file_becomes_error_finding(tmp_path):
    write_tree(tmp_path, {"broken.py": "def broken(:\n"})
    report = analyze_paths([tmp_path], use_cache=False)
    assert rule_ids(report) == {"syntax-error"}
    assert report.exit_code == 1


# ----------------------------------------------------------------------
# the incremental cache
# ----------------------------------------------------------------------
def test_cache_rerun_performs_zero_reparses(tmp_path):
    source_dir = write_tree(tmp_path / "proj", {
        "pkg/__init__.py": "",
        "pkg/a.py": "def base_ms():\n    return 2.0\n",
        "pkg/b.py": ("from pkg.a import base_ms\n"
                     "def f(x_us):\n"
                     "    return x_us + base_ms()\n"),
    })
    cache_file = tmp_path / "cache.json"
    parses: list[str] = []
    PARSE_HOOKS.append(parses.append)
    try:
        first = analyze_paths([source_dir], cache_path=cache_file)
        assert len(parses) == first.files_checked == 3
        parses.clear()
        second = analyze_paths([source_dir], cache_path=cache_file)
    finally:
        PARSE_HOOKS.remove(parses.append)
    assert parses == []  # zero re-parses on an unchanged tree
    assert second.from_cache == second.files_checked == 3
    assert second.parsed == 0
    # Cached summaries must reproduce the exact findings, the lint
    # pass's included.
    assert second.violations == first.violations
    assert rule_ids(second) == {"cross-unit-arithmetic",
                                "unit-suffix-mixing"}


def test_cache_reparses_only_the_changed_file(tmp_path):
    source_dir = write_tree(tmp_path / "proj", {
        "a.py": "def f():\n    return 1\n",
        "b.py": "def g():\n    return 2\n",
    })
    cache_file = tmp_path / "cache.json"
    analyze_paths([source_dir], cache_path=cache_file)
    (source_dir / "a.py").write_text("def f():\n    return 3\n",
                                     encoding="utf-8")
    parses: list[str] = []
    PARSE_HOOKS.append(parses.append)
    try:
        report = analyze_paths([source_dir], cache_path=cache_file)
    finally:
        PARSE_HOOKS.remove(parses.append)
    assert [Path(p).name for p in parses] == ["a.py"]
    assert report.parsed == 1
    assert report.from_cache == 1


def test_changed_analyzer_version_discards_the_cache(tmp_path):
    source_dir = write_tree(tmp_path / "proj", {
        "a.py": "def f():\n    return 1\n",
        "b.py": "def g():\n    return 2\n",
    })
    cache_file = tmp_path / "cache.json"
    analyze_paths([source_dir], cache_path=cache_file)
    payload = json.loads(cache_file.read_text(encoding="utf-8"))
    assert payload["analyzer_version"] == analyzer_version()
    payload["analyzer_version"] = "an-older-analyzer"
    cache_file.write_text(json.dumps(payload), encoding="utf-8")
    report = analyze_paths([source_dir], cache_path=cache_file)
    assert report.parsed == 2
    assert report.from_cache == 0


def test_analyzer_version_tracks_the_analyzer_source(tmp_path):
    tool = write_tree(tmp_path / "tool", {
        "rules.py": "RULE = 1\n",
        "sub/loader.py": "LOADER = 1\n",
    })
    before = analyzer_version(tool)
    assert analyzer_version(tool) == before
    (tool / "sub" / "loader.py").write_text("LOADER = 2\n",
                                            encoding="utf-8")
    assert analyzer_version(tool) != before


# ----------------------------------------------------------------------
# SARIF 2.1.0 output
# ----------------------------------------------------------------------
def test_sarif_document_matches_2_1_0_shape():
    report = analyze_paths([CROSSMOD], use_cache=False)
    assert report.violations  # the fixture must produce findings
    document = json.loads(render_analysis_sarif(report))
    assert document["$schema"] == (
        "https://json.schemastore.org/sarif-2.1.0.json")
    assert document["version"] == "2.1.0"
    assert len(document["runs"]) == 1
    run = document["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "urllc5g-analyze"
    rule_ids_listed = [rule["id"] for rule in driver["rules"]]
    assert rule_ids_listed == sorted(rule_ids_listed)
    for rule in driver["rules"]:
        assert rule["shortDescription"]["text"]
        assert rule["defaultConfiguration"]["level"] in (
            "note", "warning", "error")
    assert run["results"]
    for result in run["results"]:
        assert rule_ids_listed[result["ruleIndex"]] == result["ruleId"]
        assert result["message"]["text"]
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"]
        region = location["region"]
        assert region["startLine"] >= 1
        assert region["startColumn"] >= 1  # SARIF columns are 1-based


def test_sarif_lists_every_analyzer_rule_even_without_findings(tmp_path):
    write_tree(tmp_path, {"mod.py": "def f():\n    return 1\n"})
    report = analyze_paths([tmp_path], use_cache=False)
    document = json.loads(render_analysis_sarif(report))
    run = document["runs"][0]
    assert run["results"] == []
    listed = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert "cross-unit-arithmetic" in listed
    assert "transitive-wall-clock" in listed


# ----------------------------------------------------------------------
# reporters
# ----------------------------------------------------------------------
def test_text_reporter_mentions_cache_split(tmp_path):
    write_tree(tmp_path, {"mod.py": "def f():\n    return 1\n"})
    text = render_analysis_text(analyze_paths([tmp_path],
                                              use_cache=False))
    assert "1 file(s) analyzed" in text
    assert "1 parsed" in text


def test_json_reporter_round_trips():
    report = analyze_paths([CROSSMOD], use_cache=False)
    payload = json.loads(render_analysis_json(report))
    assert payload["exit_code"] == 1
    assert payload["files_checked"] == report.files_checked
    rules_seen = {v["rule"] for v in payload["violations"]}
    assert "cross-unit-arithmetic" in rules_seen


# ----------------------------------------------------------------------
# the repository itself is analyze-clean
# ----------------------------------------------------------------------
def test_src_tree_is_analyze_clean():
    repo_root = Path(__file__).resolve().parents[2]
    config = load_analyze_config(pyproject=repo_root / "pyproject.toml")
    report = analyze_paths([repo_root / "src"], config, use_cache=False)
    assert report.exit_code == 0, render_analysis_text(report)
    # No scattered escapes: pragmas would hide regressions.
    assert report.suppressed == 0
    # The units and purity passes need no reviewed exceptions; the
    # eight baselined findings (six fingerprints) are the lint pass's,
    # detsan's and distcheck's.
    assert report.baselined == 8
    accepted = json.loads((repo_root / "analyze-baseline.json")
                          .read_text(encoding="utf-8"))["findings"]
    assert len(accepted) == 6
    assert {entry["rule"] for entry in accepted} == {
        "detsan-buffered-escape", "dist-mutable-global",
        "no-wall-clock", "rng-discipline"}
