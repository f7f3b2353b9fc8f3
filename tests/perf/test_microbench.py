"""Microbenchmarks for the DES hot paths (pytest-benchmark).

Run locally with ``pytest tests/perf --benchmark-only`` (plugin
installed) to get timing tables; in CI the non-blocking perf job uploads
the JSON.  Without the plugin each case runs once as a correctness
smoke (see conftest.py), so the file never breaks the tier-1 job.

Every case asserts its observable outcome too — a benchmark that stops
computing the right thing is worse than a slow one.
"""

import numpy as np

from repro.phy.timebase import TC_PER_MS
from repro.sim.distributions import LogNormal
from repro.sim.engine import Simulator
from repro.sim.sampling import BufferedSampler
from repro.sim.trace import Tracer

N_EVENTS = 5_000
N_SAMPLES = 5_000
N_EMITS = 5_000


def test_simulator_schedule_and_run(benchmark):
    def schedule_and_drain():
        sim = Simulator()
        for t in range(N_EVENTS):
            sim.schedule(t, _noop)
        return sim.run()

    assert benchmark(schedule_and_drain) == N_EVENTS


def _noop():
    return None


def test_simulator_call_in_chain(benchmark):
    def chained():
        sim = Simulator()
        remaining = [N_EVENTS]

        def tick():
            remaining[0] -= 1
            if remaining[0]:
                sim.call_in(3, tick)

        sim.call_in(3, tick)
        sim.run()
        return sim.events_processed

    assert benchmark(chained) == N_EVENTS


def test_scalar_sampling(benchmark):
    sampler = LogNormal(55.21, 16.31)

    def scalar():
        rng = np.random.default_rng(2)
        return [sampler.sample(rng) for _ in range(N_SAMPLES)]

    values = benchmark(scalar)
    assert len(values) == N_SAMPLES and min(values) > 0


def test_buffered_sampling(benchmark):
    sampler = LogNormal(55.21, 16.31)

    def buffered():
        rng = np.random.default_rng(2)
        wrapped = BufferedSampler(sampler, rng)
        return [wrapped.sample(rng) for _ in range(N_SAMPLES)]

    values = benchmark(buffered)
    assert len(values) == N_SAMPLES and min(values) > 0


def test_tracer_emit_enabled(benchmark):
    def emit_all():
        tracer = Tracer(enabled=True)
        for t in range(N_EMITS):
            tracer.emit(t, "bench.cat", "event", packet_id=t)
        return len(tracer)

    assert benchmark(emit_all) == N_EMITS


def test_tracer_emit_disabled(benchmark):
    def emit_none():
        tracer = Tracer(enabled=False)
        for t in range(N_EMITS):
            # The lazy-fields convention guards call sites like this.
            if tracer.enabled:
                tracer.emit(t, "bench.cat", "event", packet_id=t)
        return len(tracer)

    assert benchmark(emit_none) == 0


# ---------------------------------------------------------------------------
# slotted-engine stages (repro.sim.slotted) and their kernels
# ---------------------------------------------------------------------------
N_COHORT = 64
#: "No later landing" for the cohort guard.
NO_LANDING = 1 << 62


def _slotted_engine(n_ues=N_COHORT):
    """A slotted engine with one 32-byte packet per UE, run started."""
    from repro.mac.catalog import testbed_dddu
    from repro.mac.types import AccessMode
    from repro.net.session import RanConfig, RanSystem

    system = RanSystem(testbed_dddu(), RanConfig(
        access=AccessMode.GRANT_FREE, n_ues=n_ues, seed=3,
        engine="slotted"))
    engine = system.slotted
    rows = [engine.population.add_packet(ue, ue, 32, 0)
            for ue in range(1, n_ues + 1)]
    engine._start()
    return engine, rows


def test_cg_planner_joining_rule(benchmark):
    from repro.mac.catalog import minimal_mini_slot
    from repro.mac.opportunities import first_joining_window

    scheme = minimal_mini_slot()
    timeline = scheme.ul_timeline()
    index = timeline.index()
    min_tx = 2 * (scheme.numerology.slot_duration_tc // 14)
    wire = 100
    capacities = (3 * wire,) * index.n_windows  # three packets a window
    readies = [(i * 7_919_993) % (40 * TC_PER_MS)
               for i in range(N_EVENTS)]
    ues = [i % N_COHORT for i in range(N_EVENTS)]

    def plan_population():
        open_bytes = [{} for _ in range(N_COHORT)]
        ends = []
        for ready, ue in zip(readies, ues):
            used = open_bytes[ue]
            _k, start, end = first_joining_window(
                index, ready, min_tx, wire, capacities,
                lambda s: used.get(s, 0))
            used[start] = used.get(start, 0) + wire
            ends.append(end)
        return ends, open_bytes

    ends, open_bytes = benchmark(plan_population)
    assert all(b <= 3 * wire for used in open_bytes for b in used.values())
    # Each UE's first packet meets empty windows: the plain joining rule.
    for i in range(N_COHORT):
        assert ends[i] == timeline.completion_joining(readies[i], min_tx)


def test_gnb_cohort_stage(benchmark):
    from heapq import heappop

    engine, rows = _slotted_engine()
    assert benchmark(lambda: engine._gnb_cohort(rows, 0, NO_LANDING))
    # The fused cohort equals the per-layer gNB path, draw for draw.
    fused, rows = _slotted_engine()
    assert fused._gnb_cohort(rows, 0, NO_LANDING)
    layered, _ = _slotted_engine()
    for row in rows:
        layered._gnb_busy += 1
        layered._gnb_enter(row, 0, 0)
    while layered._heap:
        event = heappop(layered._heap)
        layered._gnb_layer_done(event, event[0])
    assert ([(t, row, at) for t, _seq, row, at in fused._done]
            == [(t, row, at) for t, _seq, row, at in layered._done])
    assert (fused.population.budget_processing
            == layered.population.budget_processing)


def test_window_entries_batch_vs_scalar(benchmark):
    from repro.mac.catalog import testbed_dddu

    timeline = testbed_dddu().ul_timeline()
    index = timeline.index()
    times = np.arange(N_EVENTS, dtype=np.int64) * 9_973
    min_duration = 2_000

    def batch():
        return index.earliest_entries_joining(times, min_duration)

    entries = benchmark(batch)
    # elementwise identical to the scalar rule on a sample
    step = N_EVENTS // 50
    for i, t in zip(range(0, N_EVENTS, step),
                    times[::step].tolist()):
        assert entries[i] == timeline.earliest_entry_joining(
            t, min_duration)


def test_block_server_vs_scalar_lognormal(benchmark):
    from repro.sim.sampling import LogNormalBlockServer

    mu, sigma = 3.98, 0.29

    def served():
        server = LogNormalBlockServer(np.random.default_rng(6))
        return [server.sample(mu, sigma) for _ in range(N_SAMPLES)]

    values = benchmark(served)
    scalar_rng = np.random.default_rng(6)
    expected = [float(scalar_rng.lognormal(mu, sigma))
                for _ in range(N_SAMPLES)]
    assert values == expected  # bit-identical, not just close
