"""Golden equivalence suite: slotted engine ≡ scalar engine, bitwise.

The slotted executor's contract (repro.sim.slotted, "Bit-identity
contract") is not statistical agreement but exact equality: same
latency integers, same budget decomposition, same counters, same
tracer digest.  This suite pins the contract across every execution
regime the engine distinguishes internally:

- channel families (perfect / IID erasure / zero-BLER IID /
  Gilbert-Elliott) — the zero-BLER case draws uniforms without ever
  failing, which must keep the slow transmit path;
- fault intensity 0 and 0.5 of the standard plan (precise-clock mode);
- tracing on and off (per-layer event path vs fused paths);
- sparse and heavily overlapping arrival processes (vectorized
  pre-pass vs interleaved cluster replay);
- block-buffered and forced-sequential sampling;
- the runtime determinism sanitizer, which must see the population
  streams resolve to exclusive owners with unchanged results;
- the paper's duplexing grids: the testbed's DDDU pattern, §5's
  minimal mini-slot candidate and FDD; on the denser grids a gNB
  cohort can outlive the next landing.
"""

import signal

import pytest

from repro.faults import FaultPlan
from repro.mac.catalog import fdd, minimal_mini_slot, testbed_dddu
from repro.mac.types import AccessMode
from repro.net.session import RanConfig, RanSystem
from repro.phy.channel import GilbertElliottChannel, IidErasureChannel
from repro.phy.timebase import TC_PER_MS
from repro.sim.engine import SimulationError
from repro.sim.rng import RngRegistry
from repro.sim.sampling import force_sequential
from repro.sim.sanitize import sanitizer_session
from repro.traffic.generators import uniform_in_horizon


def _make_channel(kind):
    if kind == "iid":
        return IidErasureChannel(0.3)
    if kind == "iid-zero":
        # Never fails but consumes one uniform per block: exercises
        # the engine's "cannot take the draw-free transmit fast path"
        # distinction.
        return IidErasureChannel(0.0)
    if kind == "ge":
        return GilbertElliottChannel(
            mean_good_tc=20 * TC_PER_MS, mean_bad_tc=2 * TC_PER_MS,
            bler_good=0.01, bler_bad=0.9)
    return None


SCHEMES = {
    "dddu": testbed_dddu,
    "mini-slot": minimal_mini_slot,
    "fdd": lambda: fdd(2),
}


def _run(engine, channel_kind="perfect", intensity=0.0, trace=False,
         n_ues=4, packets_per_ue=5, horizon_ms=40, scheme="dddu"):
    plan = None
    if intensity:
        plan = FaultPlan.resolve("standard").scaled(intensity)
    system = RanSystem(
        SCHEMES[scheme](),
        RanConfig(access=AccessMode.GRANT_FREE, n_ues=n_ues, seed=7,
                  channel=_make_channel(channel_kind), fault_plan=plan,
                  trace=trace, engine=engine))
    rngs = RngRegistry(123)
    horizon = horizon_ms * TC_PER_MS
    for ue_id in range(1, n_ues + 1):
        system.queue_uplink(
            uniform_in_horizon(packets_per_ue, horizon,
                               rngs.stream(f"arrivals.ue{ue_id}")),
            ue_id=ue_id)
    system.run()
    out = {
        "latencies": tuple(system.ul_probe.latencies_tc()),
        "budgets": tuple(sorted(
            system.ul_probe.budget_means_us().items())),
        "delivered": len(system.ul_probe),
        "blocks_sent": system.link.counters.blocks_sent,
        "blocks_failed": system.link.counters.blocks_failed,
        "dropped": system.link.counters.packets_dropped,
        "ul_out": system.gnb.counters.ul_packets_out,
        "cg_alloc": system.gnb.scheduler.counters.cg_allocated_bytes,
        "cg_used": system.gnb.scheduler.counters.cg_used_bytes,
        "engine": system.engine_mode,
    }
    if trace:
        out["digest"] = system.tracer.digest()
    return out


def _matrix():
    """Channel × fault intensity × trace, on every grid.  The testbed
    grid keeps the bare ``channel-intensity-trace`` ids."""
    for scheme in SCHEMES:
        for channel_kind in ["ge", "iid", "iid-zero", "perfect"]:
            for intensity in [0.0, 0.5]:
                for trace in [False, True]:
                    case_id = f"{channel_kind}-{intensity}-{trace}"
                    if scheme != "dddu":
                        case_id += f"-{scheme}"
                    yield pytest.param(channel_kind, intensity, trace,
                                       scheme, id=case_id)


@pytest.mark.parametrize("channel_kind,intensity,trace,scheme",
                         list(_matrix()))
def test_slotted_matches_scalar_bitwise(channel_kind, intensity, trace,
                                        scheme):
    scalar = _run("scalar", channel_kind, intensity, trace,
                  scheme=scheme)
    slotted = _run("slotted", channel_kind, intensity, trace,
                   scheme=scheme)
    assert scalar.pop("engine") == "scalar"
    assert slotted.pop("engine") == "slotted"
    assert scalar == slotted


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_slotted_matches_scalar_with_overlapping_chains(scheme):
    """Dense arrivals: most transit chains overlap the UE's next
    arrival, forcing the interleaved-replay path of the plan
    pre-pass (and, under faults, the per-layer event path).  On the
    mini-slot grid a one-block gNB cohort often outlives the next
    landing, which the cohort guard must catch."""
    scalar = _run("scalar", n_ues=3, packets_per_ue=40, horizon_ms=25,
                  scheme=scheme)
    slotted = _run("slotted", n_ues=3, packets_per_ue=40,
                   horizon_ms=25, scheme=scheme)
    assert scalar.pop("engine") == "scalar"
    assert slotted.pop("engine") == "slotted"
    assert scalar == slotted


def test_slotted_buffered_equals_forced_sequential():
    buffered = _run("slotted")
    with force_sequential():
        sequential = _run("slotted")
    assert buffered == sequential


def test_slotted_under_sanitizer_resolves_streams_and_matches():
    scalar = _run("scalar")
    with sanitizer_session() as log:
        slotted = _run("slotted")
    assert scalar.pop("engine") == "scalar"
    assert slotted.pop("engine") == "slotted"
    assert scalar == slotted
    # Every population stream the slotted engine consumes resolved in
    # the sanitizer's ownership map: the per-UE chain streams and the
    # shared gnb stream are exclusively claimed by their block
    # servers, and all were actually drawn from.
    for name in ["gnb"] + [f"ue{i}" for i in range(1, 5)]:
        stream = log.streams[name]
        assert stream.exclusive_owner is not None, name
        assert stream.draws > 0, name


def test_slotted_runs_are_reproducible():
    assert _run("slotted") == _run("slotted")


@pytest.mark.parametrize("engine", ["scalar", "slotted"])
def test_packet_that_fits_no_cg_window_raises_on_both_engines(engine):
    """A payload above every window's CG capacity has no window to
    join; both engines must say so instead of scanning forever."""
    system = RanSystem(
        testbed_dddu(),
        RanConfig(access=AccessMode.GRANT_FREE, n_ues=1,
                  payload_bytes=10_000_000, engine=engine))
    system.queue_uplink([0])

    def _hung(signum, frame):
        raise TimeoutError("grant-free planning did not terminate")

    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(10)
    try:
        with pytest.raises((LookupError, SimulationError)) as info:
            system.run()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    error = info.value
    if engine == "scalar":
        # The scalar engine wraps callback failures with sim context.
        assert isinstance(error, SimulationError)
        error = error.__cause__
    assert isinstance(error, LookupError)
    assert "no usable configured-grant window" in str(error)
