"""The benchmark's workloads: campaign builders and correctness gates.

Every workload is a campaign the benchmark builds from its own seed;
the program only ever receives the finished campaign.  The builders
import ``repro`` lazily so the orchestrator can name workloads without
loading the simulator.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

__all__ = ["DEFAULT_SEEDS", "WORKLOADS", "build", "check",
           "check_sweep_reference", "executor", "work_units"]

#: Workload name -> how its campaign executes.  The traced
#: ``sweep-workers`` run also dispatches its campaign once, so the
#: dispatch layer is measured without a workload of its own.
WORKLOADS: dict[str, str] = {
    "fig6-journey": "serial",
    "massive-slotted": "serial",
    "sweep-workers": "pool",
}

#: The seeds at which each workload equals the repo's own campaign
#: (``bench fig6``'s seed, the 30k point of the massive baseline, and
#: ``build_campaign("sweep")``).
DEFAULT_SEEDS = {
    "fig6-journey": 11,
    "massive-slotted": 77,
    "sweep-workers": 9000,
}

#: Worker processes of the pooled workload and of the dispatch pass.
WORKERS = 2

FIG6_PACKETS = 4_000
MASSIVE_UES = 30_000
MASSIVE_PACKETS_PER_UE = 4
SWEEP_REPETITIONS = 100

MASSIVE_BASELINE = Path("benchmarks/baselines/multi-ue-massive.json")


def executor(workload: str) -> str:
    """``serial`` or ``pool``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: "
                         + ", ".join(WORKLOADS))
    return WORKLOADS[workload]


def build(workload: str, seed: int) -> Any:
    """The workload's campaign at ``seed``."""
    from repro.core.design_space import enumerate_common_configurations
    from repro.runner import Campaign, grid_params

    executor(workload)
    if workload == "fig6-journey":
        # Fig 6's arrival rate (one packet per 5 ms) at 5x the packets
        # of ``bench fig6``, so one pass is seconds of simulation.
        return Campaign.from_grid(
            "fig6-journey", seed=seed, scenario="ran-latency",
            grid={"access": ["grant-based", "grant-free"],
                  "direction": ["dl", "ul"]},
            fixed={"packets": FIG6_PACKETS,
                   "horizon_ms": 5.0 * FIG6_PACKETS})
    if workload == "massive-slotted":
        return Campaign.from_grid(
            "multi-ue-massive", seed=seed, scenario="multi-ue-massive",
            grid={"n_ues": [MASSIVE_UES]},
            fixed={"packets_per_ue": MASSIVE_PACKETS_PER_UE,
                   "horizon_ms": 2_000.0})
    # The named ``sweep`` campaign's points.
    specs = [("radio-sweep", params) for params in grid_params(
        {"bus": ["usb2", "usb3", "pcie", "ethernet"],
         "samples": list(range(1_000, 20_001, 500))},
        fixed={"repetitions": SWEEP_REPETITIONS})]
    universe = len(enumerate_common_configurations(mu=2,
                                                   max_period_ms=2.5))
    specs += [("design-feasibility",
               {"index": index, "mu": 2, "max_period_ms": 2.5,
                "budget_ms": 0.5, "reliability": 0.99999})
              for index in range(universe)]
    return Campaign.build("sweep", seed=seed, specs=specs)


def work_units(workload: str, metrics: Mapping[str, float]) -> int:
    """Simulated packets a pass delivers (the ``packets_per_s`` base).

    Scenario packets on the simulation workloads; on the sweep, the
    radio-bus submissions that its ``radio-sweep`` points simulate.
    """
    if workload in ("fig6-journey", "massive-slotted"):
        key = "count" if workload == "fig6-journey" else "delivered"
        return int(sum(value for name, value in metrics.items()
                       if name.endswith("/" + key)))
    return int(sum(value for name, value in metrics.items()
                   if name.startswith("radio-sweep[")
                   and name.endswith("/repetitions")))


def _point(metrics: Mapping[str, float], prefix: str,
           name: str) -> float | None:
    for key, value in metrics.items():
        if key.startswith(prefix) and key.endswith("/" + name):
            return value
    return None


def _check_fig6(metrics: Mapping[str, float]) -> list[str]:
    problems = []
    means = {}
    for access in ("grant-based", "grant-free"):
        for direction in ("dl", "ul"):
            prefix = (f"ran-latency[access={access},"
                      f"direction={direction},")
            count = _point(metrics, prefix, "count")
            if count != FIG6_PACKETS:
                problems.append(f"{access} {direction}: delivered "
                                f"{count} of {FIG6_PACKETS} packets")
            means[access, direction] = _point(metrics, prefix, "mean_us")
    if any(value is None for value in means.values()):
        return problems + ["fig6-journey: a mean latency is missing"]
    dl_max = max(means["grant-based", "dl"], means["grant-free", "dl"])
    if not (means["grant-based", "ul"] > means["grant-free", "ul"]
            > dl_max):
        problems.append(
            "Fig 6 order broken: want UL grant-based mean > UL "
            "grant-free mean > both DL means, got "
            + ", ".join(f"{a} {d} {v:.1f} us"
                        for (a, d), v in sorted(means.items())))
    return problems


def _check_massive(metrics: Mapping[str, float], seed: int,
                   baseline: Mapping[str, Any] | None) -> list[str]:
    problems = []
    if _point(metrics, "multi-ue-massive[", "engine_slotted") != 1:
        problems.append("massive-slotted did not run the slotted engine")
    expected = MASSIVE_UES * MASSIVE_PACKETS_PER_UE
    delivered = _point(metrics, "multi-ue-massive[", "delivered")
    if delivered != expected:
        problems.append(f"massive-slotted delivered {delivered} of "
                        f"{expected} packets")
    if seed == DEFAULT_SEEDS["massive-slotted"] and baseline is not None:
        from repro.runner import check_against_baseline
        label = f"n_ues={MASSIVE_UES},"
        pinned = {key: value
                  for key, value in baseline["metrics"].items()
                  if label in key}
        if not pinned:
            problems.append(f"no {MASSIVE_UES}-UE point in the baseline")
        reference = {key: value for key, value in baseline.items()
                     if key != "max_wall_clock_s"}
        reference["metrics"] = pinned
        outcome = check_against_baseline({"metrics": dict(metrics)},
                                         reference)
        problems.extend(outcome.failures)
    return problems


def load_massive_baseline(root: Path) -> dict[str, Any]:
    """The reviewed baseline the 30k point is checked against."""
    return json.loads((root / MASSIVE_BASELINE).read_text("utf-8"))


def check(workload: str, seed: int, record: Mapping[str, Any],
          baseline: Mapping[str, Any] | None = None) -> list[str]:
    """Workload-specific problems with one repetition's results."""
    problems = [f"failed point {label}"
                for label in record.get("failed_points", ())]
    metrics = record["metrics"]
    if workload == "fig6-journey":
        problems += _check_fig6(metrics)
    elif workload == "massive-slotted":
        problems += _check_massive(metrics, seed, baseline)
    return problems


def check_sweep_reference(record: Mapping[str, Any],
                          reference_digest: str) -> list[str]:
    """A parallel sweep run must equal the serial run of its campaign."""
    if record["digest"] != reference_digest:
        return [f"digest {record['digest'][:12]}... differs from the "
                f"serial reference {reference_digest[:12]}..."]
    return []
