"""Run-to-run spread of the end-to-end metrics, and set-to-set drift.

Runs the benchmark once per seed on each workload, then prints, per
end-to-end metric, the median of the runs and the distance between
their first and third quartiles (``statistics.quantiles(n=4)``) as a
share of that median, next to the metric's bound in BENCHMARK.json.
The host reference loop is summarized the same way, so host drift
can be told apart from a change in the program::

    python3 layerbench/spread.py --runs 10 --out set1.json
    python3 layerbench/spread.py --runs 10 --out set2.json
    python3 layerbench/spread.py --compare set1.json set2.json

``--out`` is written under ``layerbench/records/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORDS = HERE / "records"


def quartile_spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def run_once(workload: str, seed: int, seconds: int) -> dict[str, Any]:
    before = set(RECORDS.glob(f"{workload}-seed{seed}-trace0-*.json"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not line["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    new = set(RECORDS.glob(f"{workload}-seed{seed}-trace0-*.json"))
    full = json.loads(max(new - before).read_text("utf-8"))
    values = {name: metric["value"]
              for name, metric in line["metrics"].items()}
    values["host.ref_loop_s"] = statistics.median(
        rep["ref_loop_s"] for rep in full["reps"])
    values["repetitions"] = len(full["reps"])
    values["wall_s"] = full["wall_s"]
    return values


def measure(workloads: list[str], runs: int, first_seed: int,
            seconds: int) -> dict[str, Any]:
    summary: dict[str, Any] = {}
    for workload in workloads:
        rows = []
        for k in range(runs):
            rows.append(run_once(workload, first_seed + k, seconds))
            print(f"{workload} seed {first_seed + k}: "
                  + " ".join(f"{name}={value:.4g}"
                             for name, value in rows[-1].items()),
                  flush=True)
        summary[workload] = {
            name: {"median": statistics.median(r[name] for r in rows),
                   "spread": quartile_spread([r[name] for r in rows]),
                   "values": [r[name] for r in rows]}
            for name in rows[0]}
    return summary


def report(summary: dict[str, Any], bounds: dict[str, float]) -> None:
    for workload, metrics in summary.items():
        print(f"\n{workload}")
        for name, stats in metrics.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = ("ok" if stats["spread"] < bound / 3
                        else "WIDE" if stats["spread"] > bound
                        else "over a third of bound")
            print(f"  {name:18s} median {stats['median']:10.4g}  "
                  f"spread {stats['spread']:7.2%}  "
                  f"bound {bound if bound is not None else '-'}  {flag}")


def compare(first: dict[str, Any], second: dict[str, Any],
            bounds: dict[str, float], better: dict[str, str]) -> None:
    for workload in first:
        if workload not in second:
            continue
        host = (second[workload]["host.ref_loop_s"]["median"]
                / first[workload]["host.ref_loop_s"]["median"] - 1)
        print(f"\n{workload}: host.ref_loop_s moved {host:+.2%}")
        for name, bound in bounds.items():
            a = first[workload][name]["median"]
            b = second[workload][name]["median"]
            worse = (b / a - 1) if better[name] == "lower" else (a / b - 1)
            verdict = "WORSE than bound" if worse > bound else "ok"
            print(f"  {name:18s} {a:10.4g} -> {b:10.4g}  worse by "
                  f"{worse:+.2%} (bound {bound:.0%})  {verdict}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None)
    parser.add_argument("--compare", nargs=2, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    if args.compare:
        first, second = (json.loads((RECORDS / name).read_text("utf-8"))
                         for name in args.compare)
        compare(first, second, bounds, better)
        return 0
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    summary = measure(workloads, args.runs, args.first_seed,
                      spec["run_seconds"])
    report(summary, bounds)
    if args.out:
        RECORDS.mkdir(exist_ok=True)
        (RECORDS / args.out).write_text(json.dumps(summary, indent=1),
                                        "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
