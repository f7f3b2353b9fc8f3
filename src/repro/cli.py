"""Command-line interface: regenerate the paper's analyses from a shell.

Usage (after installation)::

    urllc5g table1                # the feasibility matrix
    urllc5g fig4                  # DM worst cases
    urllc5g journey               # the traced ping breakdown (Fig 3)
    urllc5g fig6 --packets 400    # testbed latency distributions
    urllc5g sweep                 # slot duration × radio latency
    urllc5g technologies          # Wi-Fi / Bluetooth / mmWave (§9)
    urllc5g analyze src/          # static analysis, every pass (docs/ANALYSIS.md)
    urllc5g analyze src/ --manifest distcheck-manifest.json
    urllc5g check --all           # the analyze gate over src/
    urllc5g check --determinism   # same-seed trace-digest comparison
    urllc5g bench smoke           # run a named campaign (docs/CAMPAIGNS.md)
    urllc5g bench smoke --check benchmarks/baselines/smoke.json
    urllc5g chaosdispatch --campaign smoke   # crash-point certification

or ``python -m repro.cli <command>``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.report import render_table, render_worst_case_bars
from repro.analysis.stats import histogram
from repro.baselines.bluetooth import BluetoothPiconet
from repro.baselines.mmwave import MmWaveBaseline
from repro.baselines.wifi import WifiBaseline
from repro.core.budget import slot_duration_sweep
from repro.core.design_space import feasibility_matrix, render_table1
from repro.core.journey import reconstruct_ping_journey
from repro.core.latency_model import LatencyModel
from repro.mac.catalog import minimal_dm, testbed_dddu
from repro.mac.types import AccessMode, Direction
from repro.net.session import RanConfig, RanSystem
from repro.phy.timebase import tc_from_ms
from repro.radio.interface import usb3
from repro.radio.os_jitter import gpos
from repro.radio.radio_head import RadioHead
from repro.sim.rng import RngRegistry
from repro.traffic.generators import uniform_in_horizon

__all__ = ["build_parser", "main"]


def _cmd_table1(args: argparse.Namespace) -> None:
    print(render_table1(feasibility_matrix(mu=args.mu)))


def _cmd_fig4(args: argparse.Namespace) -> None:
    model = LatencyModel(minimal_dm(mu=args.mu))
    entries = {
        "Grant-free UL": model.extremes(
            Direction.UL, AccessMode.GRANT_FREE).worst_tc,
        "Grant-based UL": model.extremes(
            Direction.UL, AccessMode.GRANT_BASED).worst_tc,
        "DL": model.extremes(Direction.DL).worst_tc,
    }
    print(render_worst_case_bars(entries, tc_from_ms(0.5)))


def _testbed(access: AccessMode, seed: int, trace: bool = False
             ) -> RanSystem:
    radio_head = RadioHead("b210", usb3(), gpos())
    return RanSystem(testbed_dddu(),
                     RanConfig(access=access, gnb_radio_head=radio_head,
                               seed=seed, trace=trace))


def _cmd_journey(args: argparse.Namespace) -> None:
    access = (AccessMode.GRANT_FREE if args.grant_free
              else AccessMode.GRANT_BASED)
    system = _testbed(access, seed=args.seed, trace=True)
    results = system.run_ping([tc_from_ms(0.2)])
    print(reconstruct_ping_journey(results[0], system.tracer).render())


def _cmd_fig6(args: argparse.Namespace) -> None:
    arrivals = uniform_in_horizon(
        args.packets, tc_from_ms(args.packets * 5),
        RngRegistry(args.seed).stream("arrivals"))
    for access in (AccessMode.GRANT_BASED, AccessMode.GRANT_FREE):
        print(f"--- {access.value} ---")
        for direction in ("Downlink", "Uplink"):
            system = _testbed(access, seed=args.seed)
            probe = (system.run_downlink(arrivals)
                     if direction == "Downlink"
                     else system.run_uplink(arrivals))
            hist = histogram(probe.latencies_ms(), bin_width=0.5,
                             low=0.0, high=8.0)
            print(hist.render(width=40,
                              label=f"{direction}: {probe.summary()}"))
            print()


def _cmd_sweep(args: argparse.Namespace) -> None:
    radio_values = [float(v) for v in args.radio_us]
    sweep = slot_duration_sweep(minimal_dm, mus=[0, 1, 2],
                                direction=Direction.DL,
                                access=AccessMode.GRANT_FREE,
                                radio_us_values=radio_values)
    rows = [(f"{radio:g} µs radio",
             *(f"{sweep[radio][mu]:8.1f}" for mu in (0, 1, 2)))
            for radio in radio_values]
    print(render_table(
        ("", "µ=0 (1 ms)", "µ=1 (0.5 ms)", "µ=2 (0.25 ms)"), rows,
        title="Worst-case DL latency (µs), DM configuration"))


def _cmd_technologies(args: argparse.Namespace) -> None:
    # Both baselines intentionally share one comparison stream so the
    # table's Monte-Carlo noise is correlated across technologies.
    rng = RngRegistry(args.seed).stream("technologies")  # detsan: shared
    rows = [("5G FR2 mmWave",
             f"{MmWaveBaseline().sub_ms_fraction(rng, 30_000):.1%} sub-ms")]
    for stations in (2, 10):
        reliability = WifiBaseline(stations).deadline_reliability(
            500.0, rng, draws=10_000)
        rows.append((f"Wi-Fi DCF ({stations} stations)",
                     f"{reliability:.1%} within 0.5 ms"))
    for slaves in (1, 7):
        piconet = BluetoothPiconet(slaves)
        rows.append((f"Bluetooth ({slaves} slaves)",
                     f"worst {piconet.worst_case_uplink_us():g} µs"))
    print(render_table(("technology", "vs the 0.5 ms budget"), rows))


def _missing_paths(paths: Sequence[str]) -> bool:
    """Report (on stderr) every path that does not exist.

    A typo'd path must not produce a green "0 files analyzed".
    """
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"error: no such path: {', '.join(missing)}",
              file=sys.stderr)
    return bool(missing)


def _cmd_analyze(args: argparse.Namespace) -> int:
    # Imported lazily so the runtime verbs never load the analyzer.
    from repro.devtools.analyze import (
        AnalyzeConfig, Baseline, analyze_paths, load_analyze_config,
        load_baseline, render_analysis_dot, render_analysis_json,
        render_analysis_manifest, render_analysis_sarif,
        render_analysis_text, write_baseline)
    paths = args.paths or ["src"]
    if _missing_paths(paths):
        return 2
    try:
        if args.no_config:
            config = AnalyzeConfig()
        else:
            config = load_analyze_config(pyproject=args.config,
                                         start=paths[0])
        if args.write_baseline:
            # Capture the *unfiltered* findings as the new baseline.
            baseline = Baseline()
        else:
            baseline = (load_baseline(args.baseline)
                        if args.baseline else None)
        report = analyze_paths(paths, config, baseline=baseline,
                               cache_path=args.cache,
                               use_cache=not args.no_cache)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline:
        written = write_baseline(args.write_baseline, report.violations)
        print(f"wrote {written} finding(s) to "
              f"{args.write_baseline}")
        return 0
    renderers = {"json": render_analysis_json,
                 "sarif": render_analysis_sarif,
                 "dot": render_analysis_dot,
                 "text": render_analysis_text}
    print(renderers[args.format](report))
    if args.manifest:
        manifest = Path(args.manifest)
        manifest.write_text(render_analysis_manifest(report),
                            encoding="utf-8")
        # stderr, so the json/sarif/dot document on stdout stays whole.
        print(f"wrote certification manifest {manifest}",
              file=sys.stderr)
    return report.exit_code


def _check_all() -> int:
    """One blocking pre-merge entry point: every analyze pass over src/."""
    from repro.devtools.analyze import analyze_paths, load_analyze_config

    paths = ["src"]
    if _missing_paths(paths):
        return 2
    report = analyze_paths(paths, load_analyze_config(start=paths[0]))
    extras = [f"{count} {label}" for label, count
              in (("suppressed", report.suppressed),
                  ("baselined", report.baselined)) if count]
    detail = f" ({', '.join(extras)})" if extras else ""
    print(render_table(
        ("tool", "findings", "status"),
        [("analyze", f"{len(report.violations)} finding(s){detail}",
          "FAIL" if report.exit_code else "PASS")],
        title="urllc5g check --all"))
    ownership = report.extras.ownership
    print(f"detsan streams: {len(ownership.streams)} "
          f"({ownership.resolved}/{ownership.acquisitions} "
          "acquisition(s) resolved)")
    statuses: dict[str, int] = {}
    for cert in report.extras.certifications:
        statuses[cert.status] = statuses.get(cert.status, 0) + 1
    summary = ", ".join(f"{count} {status}" for status, count
                        in sorted(statuses.items()))
    print(f"distcheck scenarios: {summary or '(none registered)'}")
    return report.exit_code


def _cmd_check(args: argparse.Namespace) -> int:
    if args.all:
        return _check_all()
    from repro.devtools.determinism import determinism_report
    if not args.determinism:
        print("nothing to check: pass --determinism or --all")
        return 2
    try:
        report = determinism_report(seed=args.seed,
                                    packets=args.packets,
                                    runs=args.runs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    # Imported lazily so analysis commands stay import-light.
    from repro.runner import (
        CAMPAIGNS, CampaignJournal, CampaignRunner, ResultCache,
        bench_payload, build_campaign, check_against_baseline,
        load_baseline, render_baseline, write_bench_json)
    if args.worker is not None:
        # Worker mode: attach to a dispatch queue directory and exit
        # when the campaign is drained.  No campaign name, cache or
        # journal flags apply — everything comes from the queue.
        from repro.runner import run_worker
        if args.campaign is not None or args.dispatch is not None:
            print("error: --worker takes no campaign name and is "
                  "mutually exclusive with --dispatch",
                  file=sys.stderr)
            return 2
        worker_id = args.worker_id or f"w{os.getpid()}"
        return run_worker(args.worker, worker_id,
                          max_retries=args.retries,
                          strikes=args.strikes)
    if args.list:
        for name in sorted(CAMPAIGNS):
            print(f"{name}: {len(build_campaign(name))} point(s)")
        return 0
    if args.campaign is None:
        print("error: campaign name required (or --list)",
              file=sys.stderr)
        return 2
    if args.resume and args.no_journal:
        print("error: --resume requires a journal (drop --no-journal)",
              file=sys.stderr)
        return 2
    if args.dispatch is not None:
        if args.dispatch < 1:
            print(f"error: --dispatch must be >= 1, got "
                  f"{args.dispatch}", file=sys.stderr)
            return 2
        if args.workers != 1:
            print("error: --dispatch spawns its own worker processes; "
                  "drop --workers", file=sys.stderr)
            return 2
        if args.resume:
            print("error: --resume is not supported with --dispatch "
                  "(the queue is rebuilt each run; warm points replay "
                  "from the result cache instead)", file=sys.stderr)
            return 2
    try:
        campaign = build_campaign(args.campaign)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.sanitize:
        # Environment (not a flag threaded through the runner) so
        # spawned worker processes inherit it; streams are wrapped in
        # recording proxies at creation time (see repro.sim.sanitize).
        # Sanitized runs are bit-identical, so cached results stay
        # valid either way.
        os.environ["URLLC5G_SANITIZE"] = "1"
    cache = None if args.no_cache else ResultCache(args.cache)
    journal_path = None
    if not args.no_journal:
        journal_path = (args.journal
                        or f".urllc5g-{campaign.name}.journal.jsonl")
    if args.profile:
        from repro.devtools.profile import (
            profile_call, write_profile_json)
    if args.dispatch is not None:
        import shutil

        from repro.devtools.distcheck.manifest import (
            ManifestError, load_manifest)
        from repro.runner.dispatch import (
            MERGED_JOURNAL_NAME, DispatchCoordinator,
            DispatchRefusedError)
        try:
            manifest = load_manifest(args.manifest)
        except ManifestError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        queue_dir = Path(args.queue_dir
                         or f".urllc5g-{campaign.name}.queue")
        coordinator = DispatchCoordinator(
            workers=args.dispatch, queue_dir=queue_dir,
            manifest=manifest, cache=cache,
            max_retries=args.retries)
        try:
            if args.profile:
                result, report = profile_call(
                    lambda: coordinator.run(campaign))
            else:
                result = coordinator.run(campaign)
        except (DispatchRefusedError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # The merged journal is serial-equivalent: copy it to the
        # standard journal path so a later (non-dispatched) --resume
        # picks it up exactly as if this run had been serial.
        if journal_path is not None:
            shutil.copyfile(queue_dir / MERGED_JOURNAL_NAME,
                            journal_path)
        if not args.keep_queue:
            shutil.rmtree(queue_dir, ignore_errors=True)
    else:
        journal = None
        if journal_path is not None:
            journal = CampaignJournal(journal_path)
        with CampaignRunner(workers=args.workers, cache=cache,
                            timeout_s=args.timeout_s,
                            max_retries=args.retries) as runner:
            if args.profile:
                result, report = profile_call(
                    lambda: runner.run(campaign, journal=journal,
                                       resume=args.resume))
            else:
                result = runner.run(campaign, journal=journal,
                                    resume=args.resume)
        if journal is not None:
            journal.close()
    payload = bench_payload(result)
    output = args.output or f"BENCH_{campaign.name}.json"
    write_bench_json(output, payload)
    if args.profile:
        profile_path = Path(output).with_name(
            f"PROFILE_{campaign.name}.json")
        write_profile_json(profile_path, campaign.name, report)
        hottest = next(iter(report.modules), "-")
        print(f"profile: {report.total_time_s:.2f}s under cProfile, "
              f"hottest module {hottest} -> {profile_path}")
    print(f"campaign {campaign.name}: {payload['points']} point(s) on "
          f"{payload['workers']} worker(s) in "
          f"{payload['wall_clock_s']:.2f}s wall-clock, cache hit-rate "
          f"{payload['cache']['hit_rate']:.1%} -> {output}")
    if payload["journal_replays"] or payload["retries"]:
        print(f"resilience: {payload['journal_replays']} point(s) "
              f"replayed from the journal, {payload['retries']} "
              "retr(y/ies)")
    if payload.get("dispatch"):
        stats = payload["dispatch"]
        print(f"dispatch: {stats['jobs']} job(s) across "
              f"{stats['workers']} worker(s), {stats['steals']} "
              f"steal(s), {stats['lease_expirations']} expired "
              f"lease(s), {stats['reclaims']} reclaim(s), "
              f"{stats['inline_points']} inline point(s)")
        degraded = {key: stats.get(key, 0)
                    for key in ("quarantined_files", "heartbeat_drops",
                                "event_drops", "journal_drops")
                    if stats.get(key)}
        if degraded:
            detail = ", ".join(f"{count} {name.replace('_', ' ')}"
                               for name, count in degraded.items())
            print(f"degraded: {detail} (run completed; see "
                  "docs/ROBUSTNESS.md)")
    for warning in payload["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    for failure in payload["failed_points"]:
        print(f"FAILED: {failure['label']} after "
              f"{failure['attempts']} attempt(s): {failure['error']}",
              file=sys.stderr)
    failed = bool(payload["failed_points"])
    if args.write_baseline:
        write_bench_json(args.write_baseline, render_baseline(payload))
        print(f"wrote baseline {args.write_baseline} "
              f"({len(payload['metrics'])} metric(s))")
        return 1 if failed else 0
    if args.check:
        try:
            baseline = load_baseline(args.check)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read baseline {args.check}: {exc}",
                  file=sys.stderr)
            return 2
        outcome = check_against_baseline(payload, baseline)
        print(outcome.render())
        return 0 if outcome.ok and not failed else 1
    return 1 if failed else 0


def _cmd_chaosdispatch(args: argparse.Namespace) -> int:
    # Imported lazily so analysis commands stay import-light.
    import json
    import shutil
    import tempfile

    from repro.devtools.distcheck.manifest import (ManifestError,
                                                   load_manifest)
    from repro.runner import build_campaign
    from repro.runner.chaos import certify_dispatch
    try:
        campaign = build_campaign(args.campaign)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        manifest = load_manifest(args.manifest)
    except ManifestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    work_dir = args.work_dir or tempfile.mkdtemp(
        prefix=f"urllc5g-chaos-{campaign.name}-")
    try:
        report = certify_dispatch(
            campaign, manifest, work_dir=work_dir,
            workers=args.workers, exhaustive=args.exhaustive,
            seed=args.seed, log=print)
    finally:
        if args.work_dir is None:
            shutil.rmtree(work_dir, ignore_errors=True)
    output = args.output or f"CHAOS_{campaign.name}.json"
    Path(output).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    failed = [entry["label"] for entry in report["schedules"]
              if not (entry["converged"] and entry["identical"])]
    total = len(report["schedules"])
    print(f"chaos certification: {total - len(failed)}/{total} "
          f"schedule(s) converged bit-identical to serial -> {output}")
    for label in failed:
        print(f"NOT CERTIFIED: {label}", file=sys.stderr)
    return 0 if report["certified"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urllc5g",
        description="System-level 5G URLLC latency analysis "
                    "(HotNets '24 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    table1 = sub.add_parser("table1", help="the Table 1 matrix")
    table1.add_argument("--mu", type=int, default=2)
    table1.set_defaults(func=_cmd_table1)

    fig4 = sub.add_parser("fig4", help="DM worst cases (Fig 4)")
    fig4.add_argument("--mu", type=int, default=2)
    fig4.set_defaults(func=_cmd_fig4)

    journey = sub.add_parser("journey",
                             help="traced ping breakdown (Fig 3)")
    journey.add_argument("--grant-free", action="store_true")
    journey.add_argument("--seed", type=int, default=5)
    journey.set_defaults(func=_cmd_journey)

    fig6 = sub.add_parser("fig6",
                          help="testbed latency distributions (Fig 6)")
    fig6.add_argument("--packets", type=int, default=200)
    fig6.add_argument("--seed", type=int, default=11)
    fig6.set_defaults(func=_cmd_fig6)

    sweep = sub.add_parser("sweep",
                           help="slot duration × radio latency (§4)")
    sweep.add_argument("--radio-us", nargs="+",
                       default=["0", "100", "300", "500"])
    sweep.set_defaults(func=_cmd_sweep)

    tech = sub.add_parser("technologies",
                          help="Wi-Fi/Bluetooth/mmWave baselines (§9)")
    tech.add_argument("--seed", type=int, default=3)
    tech.set_defaults(func=_cmd_technologies)

    analyze = sub.add_parser(
        "analyze",
        help="static analysis: lint rules, units, purity, detsan, "
             "distcheck (see docs/ANALYSIS.md)")
    analyze.add_argument("paths", nargs="*", default=["src"],
                         help="files or directories (default: src)")
    analyze.add_argument("--format",
                         choices=("text", "json", "sarif", "dot"),
                         default="text",
                         help="dot emits the RNG stream->owner graph")
    analyze.add_argument("--baseline", default=None, metavar="FILE",
                         help="accepted-findings file "
                              "(overrides pyproject)")
    analyze.add_argument("--write-baseline", default=None,
                         metavar="FILE",
                         help="accept all current findings into FILE "
                              "and exit 0")
    analyze.add_argument("--cache", default=None, metavar="FILE",
                         help="incremental cache location "
                              "(overrides pyproject)")
    analyze.add_argument("--no-cache", action="store_true",
                         help="re-parse every module")
    analyze.add_argument("--config", default=None,
                         help="explicit pyproject.toml path")
    analyze.add_argument("--no-config", action="store_true",
                         help="ignore [tool.urllc5g.analyze] entirely")
    analyze.add_argument("--manifest", default=None, metavar="FILE",
                         help="also write the per-scenario distcheck "
                              "certification manifest to FILE")
    analyze.set_defaults(func=_cmd_analyze)

    check = sub.add_parser(
        "check",
        help="aggregate gate (--all) and runtime sanitizers "
             "(--determinism)")
    check.add_argument("--all", action="store_true",
                       help="run every analyze pass over src/ with "
                            "the repository config")
    check.add_argument("--determinism", action="store_true",
                       help="run a scenario twice with the same seed "
                            "and compare trace digests")
    check.add_argument("--seed", type=int, default=7)
    check.add_argument("--packets", type=int, default=40)
    check.add_argument("--runs", type=int, default=2)
    check.set_defaults(func=_cmd_check)

    bench = sub.add_parser(
        "bench",
        help="run a named campaign (see docs/CAMPAIGNS.md)")
    bench.add_argument("campaign", nargs="?", default=None,
                       help="campaign name (see --list)")
    bench.add_argument("--list", action="store_true",
                       help="list known campaigns and exit")
    bench.add_argument("--workers", type=int, default=1,
                       help="worker processes (1 = serial, default)")
    bench.add_argument("--cache", default=".urllc5g-bench-cache.json",
                       metavar="FILE",
                       help="result-cache location")
    bench.add_argument("--no-cache", action="store_true",
                       help="recompute every point")
    bench.add_argument("--output", default=None, metavar="FILE",
                       help="bench document path "
                            "(default: BENCH_<campaign>.json)")
    bench.add_argument("--check", default=None, metavar="BASELINE",
                       help="compare metrics against a baseline file; "
                            "exit 1 on regression, 2 if unreadable")
    bench.add_argument("--write-baseline", default=None, metavar="FILE",
                       help="record this run's metrics as a baseline")
    bench.add_argument("--profile", action="store_true",
                       help="run under cProfile and write "
                            "PROFILE_<campaign>.json next to the bench "
                            "document (see docs/PERFORMANCE.md)")
    bench.add_argument("--timeout-s", type=float, default=None,
                       metavar="S",
                       help="parallel liveness timeout: if no point "
                            "completes within S seconds the workers "
                            "are killed and their points requeued")
    bench.add_argument("--retries", type=int, default=2, metavar="N",
                       help="extra attempts a failing point gets "
                            "before it is recorded as failed "
                            "(default: 2)")
    bench.add_argument("--journal", default=None, metavar="FILE",
                       help="campaign journal path (default: "
                            ".urllc5g-<campaign>.journal.jsonl)")
    bench.add_argument("--no-journal", action="store_true",
                       help="disable per-point checkpointing")
    bench.add_argument("--resume", action="store_true",
                       help="replay completed points from the journal "
                            "of an interrupted run (docs/ROBUSTNESS.md)")
    bench.add_argument("--sanitize", action="store_true",
                       help="run under the determinism sanitizer "
                            "(URLLC5G_SANITIZE=1): stream draws are "
                            "recorded and ownership violations raise, "
                            "results stay bit-identical")
    bench.add_argument("--dispatch", type=int, default=None,
                       metavar="N",
                       help="distribute the campaign over N worker "
                            "processes through a shared queue "
                            "directory; requires every scenario to be "
                            "certified in the distcheck manifest "
                            "(docs/CAMPAIGNS.md)")
    bench.add_argument("--queue-dir", default=None, metavar="DIR",
                       help="dispatch queue directory (default: "
                            ".urllc5g-<campaign>.queue); put it on a "
                            "shared filesystem to attach workers from "
                            "other hosts")
    bench.add_argument("--keep-queue", action="store_true",
                       help="keep the queue directory (leases, "
                            "events, per-worker journals) after a "
                            "successful dispatched run")
    bench.add_argument("--manifest", default="distcheck-manifest.json",
                       metavar="FILE",
                       help="distcheck certification manifest gating "
                            "--dispatch (default: "
                            "distcheck-manifest.json)")
    bench.add_argument("--worker", default=None, metavar="QUEUE_DIR",
                       help="run as a dispatch worker attached to an "
                            "existing queue directory (no campaign "
                            "name); exits 0 when the queue is drained, "
                            "2 if refusing to participate")
    bench.add_argument("--worker-id", default=None, metavar="ID",
                       help="worker identity inside the queue "
                            "(default: w<pid>)")
    bench.add_argument("--strikes", type=int, default=8, metavar="N",
                       help="worker mode only: heartbeat observations "
                            "without progress before a peer is "
                            "declared dead (default: 8)")
    bench.set_defaults(func=_cmd_bench)

    chaos = sub.add_parser(
        "chaosdispatch",
        help="certify dispatch against filesystem faults and worker "
             "crashes at every protocol crash point "
             "(docs/ROBUSTNESS.md)")
    chaos.add_argument("--campaign", default="smoke",
                       help="campaign to certify (default: smoke)")
    chaos.add_argument("--workers", type=int, default=2,
                       help="worker processes per schedule "
                            "(default: 2; minimum 2)")
    chaos.add_argument("--manifest", default="distcheck-manifest.json",
                       metavar="FILE",
                       help="distcheck certification manifest gating "
                            "dispatch (default: "
                            "distcheck-manifest.json)")
    chaos.add_argument("--output", default=None, metavar="FILE",
                       help="certification document path "
                            "(default: CHAOS_<campaign>.json)")
    chaos.add_argument("--work-dir", default=None, metavar="DIR",
                       help="queue/marker scratch directory (kept "
                            "afterwards; default: a temp dir, "
                            "removed)")
    chaos.add_argument("--exhaustive", action="store_true",
                       help="target every worker with every schedule "
                            "(nightly mode) instead of the first only")
    chaos.add_argument("--seed", type=int, default=None,
                       help="chaos RNG seed (default: the campaign "
                            "seed)")
    chaos.set_defaults(func=_cmd_chaosdispatch)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return int(args.func(args) or 0)


if __name__ == "__main__":
    sys.exit(main())
