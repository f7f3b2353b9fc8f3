"""Runtime determinism sanitizer.

The static rules of ``urllc5g analyze`` catch the common
*sources* of nondeterminism; this module checks the *outcome*: run the
same traced scenario twice with the same seed and require bit-identical
trace digests (:meth:`repro.sim.trace.Tracer.digest`).  Exposed as
``urllc5g check --determinism`` and as a pytest test.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mac.catalog import testbed_dddu
from repro.mac.types import AccessMode
from repro.net.session import RanConfig, RanSystem
from repro.phy.timebase import tc_from_ms
from repro.radio.interface import usb3
from repro.radio.os_jitter import gpos
from repro.radio.radio_head import RadioHead
from repro.sim.rng import RngRegistry
from repro.traffic.generators import uniform_in_horizon

__all__ = ["DeterminismReport", "determinism_report",
           "run_traced_scenario"]


@dataclass(frozen=True)
class DeterminismReport:
    """The result of running one scenario ``runs`` times."""

    seed: int
    packets: int
    digests: tuple[str, ...]
    events_processed: tuple[int, ...]

    @property
    def ok(self) -> bool:
        """True when every run produced the same trace digest."""
        return len(set(self.digests)) == 1

    def render(self) -> str:
        lines = [f"determinism check: seed={self.seed} "
                 f"packets={self.packets} runs={len(self.digests)}"]
        for i, (digest, events) in enumerate(
                zip(self.digests, self.events_processed), start=1):
            lines.append(f"  run {i}: {events} events, "
                         f"digest {digest[:16]}…")
        lines.append("PASS: identical trace digests" if self.ok
                     else "FAIL: trace digests differ between "
                          "same-seed runs")
        return "\n".join(lines)


def run_traced_scenario(seed: int, packets: int = 40,
                        access: AccessMode = AccessMode.GRANT_FREE
                        ) -> tuple[str, int]:
    """Run the §7 testbed scenario once, fully traced.

    Mixed UL data and ping traffic exercises the scheduler, HARQ
    feedback, the air link and the core-network path.  Returns the
    trace digest and the number of simulator events processed.
    """
    radio_head = RadioHead("b210", usb3(), gpos())
    system = RanSystem(
        testbed_dddu(),
        RanConfig(access=access, gnb_radio_head=radio_head,
                  seed=seed, trace=True))
    horizon_tc = tc_from_ms(max(1, packets) * 2)
    arrivals = uniform_in_horizon(
        packets, horizon_tc, RngRegistry(seed).stream("arrivals"))
    system.queue_uplink(arrivals)
    ping_at = tc_from_ms(0.25)
    system.queue_pings([ping_at])
    system.run()
    return system.tracer.digest(), system.sim.events_processed


def determinism_report(seed: int = 7, packets: int = 40,
                       runs: int = 2,
                       access: AccessMode = AccessMode.GRANT_FREE
                       ) -> DeterminismReport:
    """Run the scenario ``runs`` times and compare trace digests."""
    if runs < 2:
        raise ValueError(f"need at least 2 runs to compare, got {runs}")
    digests: list[str] = []
    events: list[int] = []
    for _ in range(runs):
        digest, processed = run_traced_scenario(seed, packets, access)
        digests.append(digest)
        events.append(processed)
    return DeterminismReport(seed=seed, packets=packets,
                             digests=tuple(digests),
                             events_processed=tuple(events))
