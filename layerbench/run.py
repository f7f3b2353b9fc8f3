"""The repo benchmark: time ``urllc5g bench``-shaped runs from outside.

Usage, from the root of a checkout::

    python3 layerbench/run.py --workload fig6-journey --seed 11 \\
        --seconds 36 --trace 0

Each repetition runs ``rep.py`` in a fresh interpreter (``URLLC5G_*``
unset, ``PYTHONHASHSEED`` fixed) with its own empty result cache,
journal and queue directory under ``layerbench/runs/``, in a process
group of its own.  The orchestrator adopts the repetition's orphans
(Linux ``PR_SET_CHILD_SUBREAPER``), so a repetition ends only when every
process it started (pool workers, multiprocessing's resource tracker,
dispatch workers) has ended and been reaped.  Repetitions
run one at a time, as a closed batch, until ``--seconds`` is spent
(at least :data:`MIN_REPS`).  Every end-to-end metric is the median
over the run's repetitions.  ``--trace 1`` alternates untraced and
traced repetitions and reports the per-layer metrics of
``layers.json`` instead.

Every repetition passes the correctness gate (no failed point, one
``results_digest`` per run, the workload's own checks), or the run
prints ``"correct": false`` with no metrics and exits 1.  The last
line of standard output is the result as one JSON object; the run's
full record (every repetition, the reference loop, CPU count, Python
and numpy versions) goes to ``layerbench/records/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402

#: Fewest repetitions of an untraced run, unless RUN_LIMIT_S is hit.
MIN_REPS = 3
#: A repetition that takes longer than this is killed and fails.
REP_TIMEOUT_S = 60.0
#: Start no repetition past this point of the run, so that a run ends
#: within 180 s even on a slow host.
RUN_LIMIT_S = 100.0
#: Iterations of the host reference loop.
REF_LOOP_N = 1_000_000
#: How long a finished repetition's leftover processes get to end on
#: their own before they are killed.
LEFTOVER_GRACE_S = 5.0
#: ``prctl`` option that makes this process adopt orphaned descendants.
PR_SET_CHILD_SUBREAPER = 36

END_TO_END = {
    "setup_s": "s",
    "campaign_s": "s",
    "total_s": "s",
    "packets_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics taken from the traced serial reference pass of a
#: parallel workload, whose model layers otherwise run in workers.
MODEL_LAYERS = ("sim.", "net.", "stack.", "mac.", "radio.", "core.",
                "traffic.")


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in ``layers.json`` order."""
    document = json.loads((HERE / "layers.json").read_text("utf-8"))
    return {row["name"]: row["unit"] for row in document["metrics"]}


def ref_loop() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed pure-Python loop."""
    wall, cpu = time.perf_counter(), time.process_time()
    acc = 0
    for i in range(REF_LOOP_N):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - wall, time.process_time() - cpu


def become_subreaper() -> bool:
    """Adopt orphaned descendants, so that they can be waited for."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (AttributeError, OSError):
        return False


def reap_adopted() -> bool:
    """Reap every ended child; True when no child is left at all."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        if pid == 0:
            return False


def group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def stop_leftovers(pgid: int, adopting: bool) -> None:
    """Wait until the repetition's processes have all ended.

    The repetition's own process has been reaped.  What it left behind
    gets :data:`LEFTOVER_GRACE_S` to end on its own and is then killed.
    As a subreaper this process has adopted all of it, so it is done
    when it has no child left; otherwise when the group is empty (a
    zombie nobody reaps keeps it so, hence the second time limit).
    Nothing the program starts leaves the group, so killing the group
    kills everything left.
    """
    started = time.perf_counter()
    while True:
        if adopting:
            if reap_adopted():
                return
        elif not group_alive(pgid):
            return
        waited = time.perf_counter() - started
        if waited > 2 * LEFTOVER_GRACE_S:
            return
        if waited > LEFTOVER_GRACE_S:
            kill_group(pgid)
        time.sleep(0.005)


def rep_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("URLLC5G_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_rep(workload: str, seed: int, trace: int, index: int,
            adopting: bool, role: str | None = None) -> dict[str, Any]:
    """One repetition in a fresh interpreter; its record and timings.

    ``role`` is ``"reference"`` (serial, no cache or journal) or
    ``"dispatch"`` (through the dispatch coordinator); see ``rep.py``.
    ``adopting`` says whether this process is a subreaper.
    """
    rep_dir = HERE / "runs" / f"{os.getpid()}-{index}"
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    ref_wall, ref_cpu = ref_loop()
    command = [sys.executable, str(HERE / "rep.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(trace), "--dir", str(rep_dir)]
    if role is not None:
        command.append(f"--{role}")
    try:
        with open(rep_dir / "log.txt", "wb") as log:
            launch = time.perf_counter()
            proc = subprocess.Popen(command + ["--launch", repr(launch)],
                                    cwd=ROOT, env=rep_env(), stdout=log,
                                    stderr=subprocess.STDOUT,
                                    start_new_session=True)
            timer = threading.Timer(REP_TIMEOUT_S, kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    kill_group(proc.pid)
                    proc.wait()
                stop_leftovers(proc.pid, adopting)
        record_path = rep_dir / "record.json"
        if proc.returncode != 0 or not record_path.exists():
            log_tail = (rep_dir / "log.txt").read_text(
                "utf-8", errors="replace")[-2000:]
            return {"error": f"repetition exited with code "
                             f"{proc.returncode}:\n{log_tail}",
                    "ref_loop_s": ref_wall}
        record = json.loads(record_path.read_text("utf-8"))
        spans = rep_dir / "spans.npz"
        if spans.exists():
            records = HERE / "records"
            records.mkdir(exist_ok=True)
            os.replace(spans, records / f"spans-{workload}-{index}.npz")
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    campaign_s = record["t_return"] - record["t_call"]
    record.update({
        "ref_loop_s": ref_wall,
        "ref_loop_cpu_s": ref_cpu,
        "timings": {
            "setup_s": record["t_call"] - launch,
            "campaign_s": campaign_s,
            "total_s": record["t_written"] - launch,
            "packets_per_s": workloads.work_units(
                workload, record["metrics"]) / campaign_s,
            # wait4 reports the process plus every child it reaped;
            # ru_maxrss is then the larger of its own and its largest
            # child's peak.
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        },
    })
    return record


def gate(workload: str, seed: int, reps: list[dict[str, Any]],
         passes: dict[str, dict[str, Any]],
         baseline: dict[str, Any] | None) -> list[str]:
    """Every problem with the run's results (empty when correct).

    ``passes`` holds the run's extra passes by role: the serial
    ``reference`` of a parallel workload and its traced ``dispatch``.
    """
    problems = []
    everything = reps + list(passes.values())
    for record in everything:
        if "error" in record:
            problems.append(record["error"])
    if problems:
        return problems
    for record in everything:
        problems += workloads.check(workload, seed, record, baseline)
    reference = passes.get("reference")
    if reference is not None:
        for record in everything:
            problems += workloads.check_sweep_reference(
                record, reference["digest"])
    digests = {record["digest"] for record in everything}
    if len(digests) != 1:
        problems.append(f"results_digest differs between repetitions "
                        f"of seed {seed}: {sorted(digests)}")
    return problems


def median_of(records: list[dict[str, Any]], key: str) -> float:
    return statistics.median(record["timings"][key] for record in records)


def summarize(workload: str, seed: int, trace: int,
              reps: list[dict[str, Any]],
              passes: dict[str, dict[str, Any]],
              baseline: dict[str, Any] | None) -> dict[str, Any]:
    """The result line: metrics only when every check passed."""
    everything = reps + list(passes.values())
    attempted = sum(record.get("points", 0) for record in everything)
    failed = sum(len(record.get("failed_points", ()))
                 for record in everything)
    problems = gate(workload, seed, reps, passes, baseline)
    line: dict[str, Any] = {"correct": not problems,
                            "attempted": max(attempted, 1),
                            "failed": failed, "metrics": {}}
    if problems:
        line["problems"] = problems
        return line
    plain = [record for record in reps if not record["trace"]]
    if not trace:
        line["metrics"] = {
            name: {"value": median_of(plain, name), "unit": unit}
            for name, unit in END_TO_END.items()}
        return line
    traced = [record for record in reps if record["trace"]]
    values: dict[str, float] = {}
    for name in traced[0]["per_layer"]:
        values[name] = statistics.median(
            record["per_layer"][name] for record in traced)
        for prefixes, role in ((MODEL_LAYERS, "reference"),
                               (("runner.dispatch.",), "dispatch")):
            if role in passes and name.startswith(prefixes):
                values[name] = passes[role]["per_layer"][name]
    values["trace.overhead_s"] = (median_of(traced, "total_s")
                                  - median_of(plain, "total_s"))
    values["host.ref_loop_s"] = statistics.median(
        record["ref_loop_s"] for record in reps)
    line["metrics"] = {name: {"value": values[name], "unit": unit}
                       for name, unit in per_layer_units().items()}
    return line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the seed at which "
                             "the workload equals the repo's campaign)")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src'} does not "
              "hold the repro package", file=sys.stderr)
        return 2
    # A SIGTERM unwinds like an exception, so the running repetition's
    # processes are stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    adopting = become_subreaper()
    workload = args.workload
    seed = (args.seed if args.seed is not None
            else workloads.DEFAULT_SEEDS[workload])
    started = time.perf_counter()
    # Byte-compile once so no repetition pays for a cold __pycache__.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(ROOT / "src"), str(HERE)],
                   check=True, stdout=subprocess.DEVNULL, env=rep_env())
    baseline = (workloads.load_massive_baseline(ROOT)
                if workload == "massive-slotted" else None)
    # A parallel workload's serial reference runs outside every timed
    # span; traced, it gives the model layers that otherwise run in
    # worker processes, and a traced dispatch of the same campaign
    # gives the dispatch layer.
    passes: dict[str, dict[str, Any]] = {}
    if workloads.executor(workload) != "serial":
        roles = ["reference"] + (["dispatch"] if args.trace else [])
        for index, role in enumerate(roles):
            passes[role] = run_rep(workload, seed, args.trace,
                                   -1 - index, adopting, role)
    reps: list[dict[str, Any]] = []
    measure_start = time.perf_counter()
    while not any("error" in record for record in passes.values()):
        traced = bool(args.trace) and len(reps) % 2 == 1
        record = run_rep(workload, seed, int(traced), len(reps) + 1,
                         adopting)
        reps.append(record)
        if "error" in record:
            break
        now = time.perf_counter()
        elapsed = now - measure_start
        per_rep = elapsed / len(reps)
        if args.trace and len(reps) < 2:
            continue  # one untraced and one traced repetition at least
        if now - started > RUN_LIMIT_S or (
                len(reps) >= MIN_REPS and elapsed + per_rep > args.seconds):
            break
    line = summarize(workload, seed, args.trace, reps, passes, baseline)

    full = {
        "workload": workload, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": next((record["numpy"] for record in reps
                       if "numpy" in record), None),
        "machine": platform.machine(),
        "wall_s": time.perf_counter() - started,
        "passes": passes, "reps": reps, "result": line,
    }
    for record in reps + list(passes.values()):
        record.pop("metrics", None)
    records = HERE / "records"
    records.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    (records / f"{workload}-seed{seed}-trace{args.trace}-{stamp}-"
               f"{os.getpid()}.json").write_text(
        json.dumps(full, indent=1), "utf-8")

    for problem in line.get("problems", ()):
        print(f"FAILED: {problem}", file=sys.stderr)
    for name, metric in line["metrics"].items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    print(f"correct={line['correct']} attempted={line['attempted']} "
          f"failed={line['failed']} repetitions={len(reps)}")
    line.pop("problems", None)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
