"""One benchmark repetition, run by ``run.py`` in a fresh interpreter.

It does what ``urllc5g bench`` does, through the same public entry
points: import ``repro.cli``, build the campaign, construct the result
cache, journal and runner (or dispatch coordinator), run, then write
the BENCH document with ``bench_payload``/``write_bench_json``.  It
stamps ``time.perf_counter`` (a system-wide monotonic clock, so the
parent's launch stamp is comparable) at the run call, its return and
after the write, and leaves a ``record.json`` in its private
directory for the parent.

``--trace 1`` installs the layer probes after the import and records
spans; ``--reference`` runs the campaign serially with no cache or
journal, the digest the parallel sweep must reproduce; ``--dispatch``
runs it through ``DispatchCoordinator`` instead of the workload's own
executor::

    python3 layerbench/rep.py --workload W --seed N --trace 0 \\
        --dir DIR --launch T [--reference | --dispatch]
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent

#: The spans each per-layer metric reads its time from.
_SPAN_TOTALS = {
    "runner.fingerprint_s": "runner.fingerprint",
    "runner.cache.store_s": "runner.cache.store",
    "runner.cache.save_s": "runner.cache.save",
    "runner.journal.record_s": "runner.journal.record",
    "runner.digest_s": "runner.digest",
    "runner.write_s": "runner.write",
    "runner.dispatch.enqueue_s": "runner.dispatch.enqueue",
    "runner.dispatch.merge_s": "runner.dispatch.merge",
    "sim.engine.run_s": "sim.engine.run",
    "sim.slotted.queue_s": "sim.slotted.queue",
    "sim.slotted.run_s": "sim.slotted.run",
    "sim.rng.stream_s": "sim.rng.stream",
    "net.system_build_s": "net.system_build",
    "net.probe_summary_s": "net.probe_summary",
    "mac.scheduler.sr_s": "mac.scheduler.sr",
    "radio.submission_s": "radio.submission",
    "core.enumerate_s": "core.enumerate",
    "core.extremes_s": "core.extremes",
    "traffic.arrivals_s": "traffic.arrivals",
}

#: Per-layer metrics that are plain probe counts.
_COUNTS = ("runner.journal.records", "sim.engine.events",
           "sim.rng.streams", "mac.scheduler.sr_calls",
           "radio.submission_calls", "core.extremes_calls")

STACK_LAYERS = ("sdap", "pdcp", "rlc", "mac", "phy")


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(max(1, math.ceil(share * len(ordered))), len(ordered))
    return ordered[rank - 1]


def layer_metrics(spans: Any, probes: Any, root: int, t_call: float,
                  extra: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of one traced repetition."""
    from spans import coverage

    summary = spans.summary()
    metrics = {name: summary.get(span, {}).get("total_s", 0.0)
               for name, span in _SPAN_TOTALS.items()}
    metrics.update({name: float(probes.counts.get(name, 0))
                    for name in _COUNTS})
    for layer in STACK_LAYERS:
        stats = summary.get(f"stack.{layer}", {})
        metrics[f"stack.{layer}.calls"] = float(
            probes.counts.get(f"stack.{layer}.calls", 0))
        metrics[f"stack.{layer}.self_s"] = stats.get("self_s", 0.0)
    events = metrics["sim.engine.events"]
    metrics["sim.engine.us_per_event"] = (
        metrics["sim.engine.run_s"] * 1e6 / events if events else 0.0)
    packets = probes.counts.get("sim.slotted.packets", 0)
    metrics["sim.slotted.us_per_packet"] = (
        metrics["sim.slotted.run_s"] * 1e6 / packets if packets else 0.0)
    stamps = [t_call] + probes.arrivals
    gaps_ms = [(later - earlier) * 1e3
               for earlier, later in zip(stamps, stamps[1:])]
    metrics["runner.first_result_s"] = gaps_ms[0] / 1e3 if gaps_ms else 0.0
    metrics["runner.point_gap_ms_p50"] = percentile(gaps_ms, 0.50)
    metrics["runner.point_gap_ms_p95"] = percentile(gaps_ms, 0.95)
    metrics["trace.coverage"] = coverage(spans, root) if root >= 0 else 0.0
    metrics.update(extra)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--dispatch", action="store_true")
    args = parser.parse_args(argv)
    out: Path = args.dir

    start = time.perf_counter()
    import repro.cli  # noqa: F401  (what `urllc5g bench` loads first)
    import repro.runner as runner
    import numpy
    import_s = time.perf_counter() - start

    spans = probes = None
    if args.trace:
        import probes as probe_module
        from spans import SpanRecorder
        spans = SpanRecorder(f"{args.workload}/{args.seed}/{out.name}")
        probes = probe_module.install(spans)

    import workloads
    campaign = workloads.build(args.workload, args.seed)
    mode = ("serial" if args.reference
            else "dispatch" if args.dispatch
            else workloads.executor(args.workload))
    cache_path = out / "cache.json"
    cache = None if args.reference else runner.ResultCache(cache_path)
    journal_path = out / "journal.jsonl"
    root = -1
    if mode == "dispatch":
        from repro.devtools.distcheck.manifest import load_manifest
        from repro.runner.dispatch import MERGED_JOURNAL_NAME
        queue = out / "queue"
        spawn = None
        if args.trace:
            def spawn(worker_id: str) -> list[str]:
                return [sys.executable, str(HERE / "worker.py"),
                        str(queue), worker_id,
                        str(out / f"worker-{worker_id}.json")]
        coordinator = runner.DispatchCoordinator(
            workers=workloads.WORKERS, queue_dir=queue,
            manifest=load_manifest("distcheck-manifest.json"),
            cache=cache, spawn_command=spawn)
        if spans is not None:
            root = spans.open("runner.campaign")
        t_call = time.perf_counter()
        result = coordinator.run(campaign)
        t_return = time.perf_counter()
        if spans is not None:
            spans.close(root)
        shutil.copyfile(queue / MERGED_JOURNAL_NAME, journal_path)
        shutil.rmtree(queue)
    else:
        journal = (None if args.reference
                   else runner.CampaignJournal(journal_path))
        workers = workloads.WORKERS if mode == "pool" else 1
        with runner.CampaignRunner(workers=workers,
                                   cache=cache) as campaign_runner:
            if spans is not None:
                root = spans.open("runner.campaign")
            t_call = time.perf_counter()
            result = campaign_runner.run(campaign, journal=journal)
            t_return = time.perf_counter()
            if spans is not None:
                spans.close(root)
        if journal is not None:
            journal.close()
    payload = runner.bench_payload(result)
    runner.write_bench_json(out / "BENCH.json", payload)
    t_written = time.perf_counter()

    record: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "reference": args.reference,
        "dispatch": args.dispatch,
        "launch": args.launch,
        "t_call": t_call,
        "t_return": t_return,
        "t_written": t_written,
        "import_s": import_s,
        "digest": payload["results_digest"],
        "points": payload["points"],
        "failed_points": [entry["label"]
                          for entry in payload["failed_points"]],
        "metrics": payload["metrics"],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if probes is not None:
        worker_ops = sum(
            json.loads(path.read_text("utf-8"))["fs_ops"]
            for path in sorted(out.glob("worker-*.json")))
        stats = result.dispatch
        extra = {
            "runner.import_s": import_s,
            "runner.cache.file_bytes": float(
                cache_path.stat().st_size if cache_path.exists() else 0),
            "runner.dispatch.fs_ops": float(
                (probes.fs_ops.value if probes.fs_ops else 0)
                + worker_ops),
            "runner.dispatch.steals": float(
                stats.steals if stats is not None else 0),
            "runner.dispatch.inline_points": float(
                stats.inline_points if stats is not None else 0),
        }
        probes.uninstall()
        record["per_layer"] = layer_metrics(spans, probes, root, t_call,
                                            extra)
        record["spans"] = len(spans)
        spans.write(out / "spans.npz")
    (out / "record.json").write_text(json.dumps(record), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
