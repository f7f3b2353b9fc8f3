"""Self-tests of the benchmark: metric names, the gate, the probes and
self-time accounting.  Run from the root of the repo::

    python3 -m pytest layerbench/tests -q
"""

from __future__ import annotations

import copy
import json
import re
from pathlib import Path

import pytest

import run
import workloads
from spans import SpanRecorder, self_times

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_and_counts() -> None:
    end_to_end, per_layer = SPEC["end_to_end"], SPEC["per_layer"]
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    names = [m["name"] for m in end_to_end + per_layer]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert {m["name"]: m["unit"] for m in end_to_end} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in per_layer} \
        == run.per_layer_units()
    setup = next(m for m in end_to_end if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in end_to_end)
    assert [w["name"] for w in SPEC["workloads"]] \
        == list(workloads.WORKLOADS)


def _massive_record(baseline: dict) -> dict:
    label = "n_ues=30000,"
    metrics = {key: value for key, value in baseline["metrics"].items()
               if label in key}
    timings = {name: 1.0 for name in run.END_TO_END}
    return {"trace": 0, "digest": "d" * 64, "points": 1,
            "failed_points": [], "metrics": metrics, "timings": timings}


def test_tampered_reference_yields_no_timings() -> None:
    baseline = workloads.load_massive_baseline(ROOT)
    reps = [_massive_record(baseline) for _ in range(3)]
    honest = run.summarize("massive-slotted", 77, 0, reps, {}, baseline)
    assert honest["correct"] and set(honest["metrics"]) \
        == set(run.END_TO_END)

    tampered = copy.deepcopy(baseline)
    key = next(k for k in tampered["metrics"]
               if "n_ues=30000," in k and k.endswith("/mean_us"))
    tampered["metrics"][key] *= 1.05
    line = run.summarize("massive-slotted", 77, 0, reps, {}, tampered)
    assert line["correct"] is False
    assert line["metrics"] == {}


def test_sweep_digest_must_match_serial_reference() -> None:
    record = {"trace": 0, "digest": "a" * 64, "points": 238,
              "failed_points": [], "metrics": {},
              "timings": {name: 1.0 for name in run.END_TO_END}}
    reference = dict(record, digest="b" * 64)
    line = run.summarize("sweep-workers", 9000, 0, [record],
                         {"reference": reference}, None)
    assert line["correct"] is False and line["metrics"] == {}


def test_probes_leave_results_digest_bit_identical() -> None:
    import probes
    from repro.runner import Campaign, CampaignRunner
    from repro.stack.layers import ProcessingLayer

    campaign = Campaign.from_grid(
        "fig6-journey", seed=11, scenario="ran-latency",
        grid={"access": ["grant-based", "grant-free"],
              "direction": ["dl", "ul"]},
        fixed={"packets": 60, "horizon_ms": 300.0})
    runner = CampaignRunner(workers=1, fingerprint="selftest")
    plain = runner.run(campaign).results_digest()

    original = ProcessingLayer.process
    spans = SpanRecorder("selftest")
    handle = probes.install(spans)
    try:
        traced = runner.run(campaign).results_digest()
    finally:
        handle.uninstall()
    assert traced == plain
    assert ProcessingLayer.process is original
    assert handle.counts["stack.sdap.calls"] == 2 * 4 * 60
    assert handle.counts["mac.scheduler.sr_calls"] > 0
    summary = spans.summary()
    assert summary["stack.phy"]["self_s"] > 0
    assert runner.run(campaign).results_digest() == plain


def test_self_time_on_a_synthetic_tree() -> None:
    # 0 [0, 10] root
    # +- 1 [1, 4]        child
    # |  +- 3 [2, 3]     grandchild
    # +- 2 [3, 6]        overlaps 1 on [3, 4]
    # +- 4 [9, 12]       overhangs the root's end
    starts = [0.0, 1.0, 3.0, 2.0, 9.0]
    ends = [10.0, 4.0, 6.0, 3.0, 12.0]
    parents = [-1, 0, 0, 1, 0]
    assert self_times(starts, ends, parents) == pytest.approx(
        [10 - (5 + 1), 3 - 1, 3, 1, 3])


def test_recorder_nesting_and_same_name_totals() -> None:
    spans = SpanRecorder("selftest")
    outer = spans.open("net.probe_summary")
    inner = spans.open("net.probe_summary")
    spans.close(inner)
    spans.close(outer)
    other = spans.open("sim.engine.run")
    spans.close(other)
    assert spans.parents == [-1, 0, -1]
    summary = spans.summary()
    assert summary["net.probe_summary"]["count"] == 2
    assert summary["net.probe_summary"]["total_s"] == pytest.approx(
        spans.ends[0] - spans.starts[0])
    with pytest.raises(RuntimeError):
        first = spans.open("a")
        spans.open("b")
        spans.close(first)
