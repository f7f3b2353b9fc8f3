"""Slot-synchronous population engine for grant-free uplink at scale.

The scalar engine (:mod:`repro.sim.engine` + the :mod:`repro.net`
components) spends most of a multi-UE uplink run on per-packet
machinery: one :class:`~repro.sim.engine.Event` object, several closure
allocations, a handful of dict stamps and — dominating everything — a
scalar ``Generator.lognormal`` round trip per layer transit.  None of
that is needed to *decide* anything: the grant-free uplink path is the
fixed packet journey of the paper's Fig 3 (arrival → five UE layers →
CG planning → window transmit → link fate → five gNB layers → UPF), so
a population of 10k–100k UEs can be driven by a lean mirror executor.

:class:`SlottedUplink` replays that journey on a heap of plain tuples,
with all per-packet state in columnar form (:class:`UePopulation`) and
one method per stage.  :meth:`SlottedUplink.run` is only the
``(time, seq)`` merge of three ordered streams — pre-passed CG plans,
pending arrivals, the event heap — dispatching each entry to its stage:

*UE chain (Fig 3 ①–⑤).*  Every lognormal layer draw is served from
pre-drawn blocks of standard normals
(:class:`~repro.sim.sampling.LogNormalBlockServer`, one exclusive
server per ``ue<N>`` stream).  In never-fail untraced runs
``_prepass`` evaluates each packet's five transit draws plus its
PHY-prep draw up front, vectorized per UE, and replays the rare
overlapping chains draw for draw on a local heap; no UE event reaches
the heap.  Otherwise ``_arrive`` commits a packet's whole chain as one
``_PLAN`` event when the UE-side guard holds (nothing of the UE in
flight, its next arrival strictly after the chain end), else enters the
per-layer ``_UE_LAYER`` path, which serves the same normals one at a
time.

*CG planning.*  ``_plan_cg`` puts the packet into the earliest
configured-grant window with room via
:func:`~repro.mac.opportunities.first_joining_window` — the joining-rule
function the scalar :class:`~repro.net.ue.Ue` calls too, so both
engines make the window choice with one copy of the code.

*Air (Fig 3 ⑦–⑧).*  A planned block leaves at its window end.  When the
link can neither fail nor draw, the window-end hop folds into one
``_AIR`` landing event (``_fly``); otherwise ``_transmit`` decides the
block's fate on the shared link objects and either lands it
(``_DELIVER``) or queues the survivors' HARQ re-planning
(``_RETRANSMIT``).

*gNB (Fig 3 ⑨).*  Landed packets climb PHY→SDAP on the shared ``gnb``
stream, read in committed chunks by a :class:`_ChunkReader`.  Slot
alignment makes blocks land in same-tick cohorts; ``_gnb_cohort``
simulates a cohort's chains on a local heap in the scalar engine's
merge order, under the gNB-side guard: **a fused gNB cohort commits
only if its last exit is before the next landing** — no other
consumer of the ``gnb`` stream can interleave with its draws.  When the
guard fails, or a gNB chain is already on the per-layer path, every
packet takes one ``_GNB_LAYER`` event per layer (``_gnb_enter``).

*Core (Fig 3 ⑩).*  ``_upf_forward`` draws the UPF delay (chunk-read
like the ``gnb`` stream) and outage and schedules the completion.  In
runs without a tracer or fault hooks, completions skip the heap and are
drained after the loop in the ``(time, seq)`` order the heap would have
given (``_finish``); ``_record`` writes each delivery into
:class:`ArrayLatencyProbe`.

Bit-identity contract
---------------------
The mirror is **bit-identical** to the scalar path, not approximately
equal.  Four mechanisms enforce it (all pinned by the golden
equivalence suite in ``tests/integration/test_slotted_equivalence.py``):

1. *Event order by construction.*  The executor pushes mirror events in
   the exact order the scalar handlers call ``schedule``/``call_in``,
   with its own monotone sequence number, so same-tick events execute
   in the scalar engine's order and every shared RNG stream is consumed
   in the same interleaving.
2. *Draw-for-draw RNG equivalence.*  Scalar ``Generator.lognormal``
   consumes exactly one ziggurat standard normal per call;
   :class:`~repro.sim.sampling.LogNormalBlockServer` serves the same
   normals from blocks and reconstructs the value with scalar
   ``math.exp`` (the vectorized ``np.exp`` differs by up to 1 ulp).
   Stateful objects — the link's channel and uniform buffer, the UPF's
   buffered sampler, the fault injectors — are *shared* with the scalar
   wiring rather than reimplemented.
3. *Guarded fusion.*  A fused UE chain or gNB cohort is evaluated
   speculatively on peeked values and committed **only** when its
   guard above proves that no other consumer of the same stream can
   fall inside its time span.  When a guard fails, the peeked values
   are left unconsumed and the per-layer event path serves them one at
   a time, so both paths produce the identical value sequence.  Fusion
   is disabled entirely when tracing, because the trace stream must
   interleave per layer.
4. *A real clock for the side effects.*  Fault hooks and the tracer
   read ``sim.now``; with either active the executor moves the
   simulator's clock forward with
   :meth:`~repro.sim.engine.Simulator.advance_to` at every event.

Scope: grant-free uplink data only, no radio heads, no gNB CPU
contention, layer delays drawn from log-normal/constant samplers (the
calibrated ones are).  :func:`ineligibility` states the first violated
requirement; ``RanConfig(engine="auto")`` silently keeps the scalar
path in that case, ``engine="slotted"`` raises.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from repro.mac.opportunities import first_joining_window
from repro.mac.types import AccessMode
from repro.net.probes import LatencySummary, summarize_us
from repro.phy.channel import IidErasureChannel, PerfectChannel
from repro.phy.timebase import TC_PER_SECOND, tc_from_us, us_from_tc
from repro.sim.distributions import Constant, DelaySampler, LogNormal
from repro.sim.sampling import (DEFAULT_BLOCK, LogNormalBlockServer,
                                buffering_enabled)
from repro.stack.packets import HEADER_BYTES, LatencySource

if TYPE_CHECKING:
    from repro.net.session import RanSystem

__all__ = ["ArrayLatencyProbe", "UePopulation", "SlottedUplink",
           "ineligibility"]

#: UE transmit layers in traversal order (mirrors ``repro.net.ue``).
_UE_LAYERS = ("APP", "SDAP", "PDCP", "RLC", "MAC")
#: Header bytes each UE layer's exit adds (APP adds none).
_UE_HEADER_DELTAS = (0, HEADER_BYTES["SDAP"], HEADER_BYTES["PDCP"],
                     HEADER_BYTES["RLC"], HEADER_BYTES["MAC"])
_UE_WIRE_HEADER = sum(_UE_HEADER_DELTAS)
#: gNB uplink layers in traversal order (mirrors ``repro.net.gnb``).
_GNB_LAYERS = ("PHY", "MAC", "RLC", "PDCP", "SDAP")
_GNB_CATEGORIES = tuple(f"gnb.up.{name.lower()}" for name in _GNB_LAYERS)

# Mirror event codes.  Each heap entry is a plain tuple
# ``(time, seq, code, ...)``; ``(time, seq)`` is unique so later
# elements are never compared.
_UE_LAYER = 1       # (t, seq, code, row, layer_k, delay_us, submitted)
_TRANSMIT = 2       # (t, seq, code, ue, window_start)
_DELIVER = 3        # (t, seq, code, rows)
_GNB_LAYER = 5      # (t, seq, code, row, layer_k, delay_us, submitted)
_UPF_DONE = 6       # (t, seq, code, row, submitted)
_RETRANSMIT = 7     # (t, seq, code, ue, rows)
_PLAN = 8           # (t, seq, code, row, ue, prep_us) — fused-chain
                    # MAC exit
_AIR = 9            # (t, seq, code, ue, window_start) — transmit+fly
                    # folded into one landing event (never-fail links)

# Compiled layer-draw kinds: a draw-free constant value, or one
# lognormal draw with fixed (mu, sigma).
_KIND_CONST = 0
_KIND_LOGNORMAL = 1

#: Sentinel "no further arrival / landing" time for the fusion guards.
_FAR_FUTURE = 1 << 62

_US_PER_SECOND = 1_000_000

#: Values a :class:`_ChunkReader` pulls from its stream per refill.
_CHUNK = 1024


def _compile_sampler(sampler: DelaySampler) -> tuple[int, float, float]:
    """Lower one layer sampler to a ``(kind, a, b)`` draw recipe.

    Mirrors :meth:`repro.sim.distributions.LogNormal.sample` exactly,
    including the degenerate draw-free branches (``mean==0`` and
    ``std==0`` return without touching the stream).
    """
    if isinstance(sampler, Constant):
        return (_KIND_CONST, sampler.value_us, 0.0)
    if isinstance(sampler, LogNormal):
        if sampler.mean_us == 0:
            return (_KIND_CONST, 0.0, 0.0)
        if sampler.std_us == 0:
            return (_KIND_CONST, sampler.mean_us, 0.0)
        mu, sigma = sampler._log_params()
        return (_KIND_LOGNORMAL, mu, sigma)
    raise ValueError(
        f"slotted engine requires LogNormal/Constant layer delays, "
        f"got {type(sampler).__name__}")


def ineligibility(system: "RanSystem") -> str | None:
    """Why ``system`` cannot run the slotted engine (None = it can)."""
    config = system.config
    if config.access is not AccessMode.GRANT_FREE:
        return "slotted engine supports grant-free access only"
    if config.gnb_radio_head is not None \
            or config.ue_radio_head is not None:
        return "slotted engine does not model radio heads"
    if config.gnb_cpu_cores is not None:
        return "slotted engine does not model gNB CPU contention"
    samplers = list(system._ue_tx_delays().values())
    samplers += [layer.delay for layer in system.gnb.up_pipeline.layers]
    for sampler in samplers:
        if not isinstance(sampler, (Constant, LogNormal)):
            return (f"slotted engine requires LogNormal/Constant layer "
                    f"delays, got {type(sampler).__name__}")
    return None


class ArrayLatencyProbe:
    """Delivery-order latency recorder with compact storage.

    Exposes the read API of :class:`~repro.net.probes.LatencyProbe`
    (``len``, ``latencies_*``, ``summary``, ``budget_means_us``,
    ``fraction_within``) without holding a :class:`Packet` per
    delivery: one int latency per packet plus three running budget
    totals.  Float summaries are computed through the same
    ``us_from_tc``/``summarize_us`` path as the scalar probe, so the
    numbers are bitwise those of the scalar run.
    """

    def __init__(self, name: str = "probe"):
        self.name = name
        self._latencies_tc: list[int] = []
        self._budget_totals: dict[LatencySource, int] = {
            source: 0 for source in LatencySource}

    def record_tc(self, latency_tc: int, processing_tc: int,
                  protocol_tc: int, radio_tc: int) -> None:
        """Record one delivery (call in delivery order)."""
        self._latencies_tc.append(latency_tc)
        totals = self._budget_totals
        totals[LatencySource.PROCESSING] += processing_tc
        totals[LatencySource.PROTOCOL] += protocol_tc
        totals[LatencySource.RADIO] += radio_tc

    # ------------------------------------------------------------------
    # LatencyProbe read API
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._latencies_tc)

    def latencies_tc(self) -> list[int]:
        return list(self._latencies_tc)

    def latencies_us(self) -> list[float]:
        return [us_from_tc(lat) for lat in self._latencies_tc]

    def latencies_ms(self) -> list[float]:
        return [lat / 1000.0 for lat in self.latencies_us()]

    def summary(self) -> LatencySummary:
        return summarize_us(self.latencies_us())

    def budget_means_us(self) -> dict[str, float]:
        """Mean per-source latency decomposition (§4's three sources)."""
        if not self._latencies_tc:
            return {source.value: 0.0 for source in LatencySource}
        count = len(self._latencies_tc)
        return {source.value: us_from_tc(total / count)
                for source, total in self._budget_totals.items()}

    def fraction_within(self, budget_us: float) -> float:
        """Fraction of packets delivered within a latency budget —
        the reliability metric of §6."""
        if not self._latencies_tc:
            return 0.0
        within = sum(1 for lat in self.latencies_us()
                     if lat <= budget_us)
        return within / len(self._latencies_tc)


class UePopulation:
    """Columnar per-packet and per-UE state for the slotted engine.

    All fields are parallel Python lists — per-packet columns indexed
    by a dense packet row number, per-UE counters indexed by UE id.
    Plain-int appends and in-place ``+=`` beat numpy scalar indexing
    on this access pattern (a ``arr[i] += 1`` on an int64 array costs
    ~5× a list element update).  100k UEs × a few packets each stay
    within a few hundred MB — no :class:`Packet`, no timestamp dicts,
    no per-event closures.
    """

    def __init__(self, n_ues: int):
        if n_ues < 1:
            raise ValueError(f"population needs >= 1 UE, got {n_ues}")
        self.n_ues = n_ues
        #: per-UE counters (index 0 unused; UE ids are 1-based).
        self.blocks_sent = [0] * (n_ues + 1)
        self.queued = [0] * (n_ues + 1)
        # per-packet columns (parallel lists, row = packet index)
        self.ue: list[int] = []
        self.packet_id: list[int] = []
        self.payload: list[int] = []
        self.header: list[int] = []
        self.created: list[int] = []
        self.retx: list[int] = []
        self.dropped: list[bool] = []
        self.budget_processing: list[int] = []
        self.budget_protocol: list[int] = []
        self.budget_radio: list[int] = []
        self.delivered_tc: list[int] = []

    def add_packet(self, ue_id: int, packet_id: int, payload_bytes: int,
                   created_tc: int) -> int:
        """Append one packet row; returns its index."""
        if payload_bytes <= 0:
            raise ValueError(
                f"payload must be positive, got {payload_bytes}")
        if created_tc < 0:
            raise ValueError("creation time must be >= 0")
        self.ue.append(ue_id)
        self.packet_id.append(packet_id)
        self.payload.append(payload_bytes)
        self.header.append(0)
        self.created.append(created_tc)
        self.retx.append(0)
        self.dropped.append(False)
        self.budget_processing.append(0)
        self.budget_protocol.append(0)
        self.budget_radio.append(0)
        self.delivered_tc.append(-1)
        self.queued[ue_id] += 1
        return len(self.ue) - 1

    def __len__(self) -> int:
        return len(self.ue)


class _ChunkReader:
    """Plain-list reader over a peek/commit stream.

    The ``gnb`` and ``upf`` streams are drawn once per layer transit in
    data-dependent order; serving each draw through the stream object
    costs a method call apiece.  Instead, values are pulled from the
    stream in committed chunks into a list and indexed inline.  The
    stream refills on its own whole-block grid either way, so the served
    sequence is unchanged.  With block drawing disabled
    (``force_sequential``) ``peek`` returns None, the reader stays empty
    and :meth:`take` returns None: the caller draws on the stream's
    scalar path instead.
    """

    __slots__ = ("buf", "pos", "_peek", "_commit")

    def __init__(self, peek: Callable | None, commit: Callable | None):
        self.buf: list[float] = []
        self.pos = 0
        self._peek = peek
        self._commit = commit

    def _topup(self) -> bool:
        fresh = self._peek(_CHUNK) if self._peek is not None else None
        if fresh is None:
            return False
        self._commit(_CHUNK)
        self.buf = self.buf[self.pos:] + fresh.tolist()
        self.pos = 0
        return True

    def ensure(self, n: int) -> bool:
        """Whether ``n`` values are buffered (refilling as needed)."""
        while len(self.buf) - self.pos < n:
            if not self._topup():
                return False
        return True

    def take(self) -> float | None:
        """The next value, or None when block drawing is disabled."""
        if self.pos >= len(self.buf) and not self._topup():
            return None
        value = self.buf[self.pos]
        self.pos += 1
        return value


def _next_same_ue(arrivals: list[tuple[int, int, int]],
                  ue_col: list[int]) -> list[int]:
    """Per sorted arrival, the next arrival time of the same UE — the
    UE-side fusion guard input (:data:`_FAR_FUTURE` if none)."""
    next_same = [_FAR_FUTURE] * len(arrivals)
    last_seen: dict[int, int] = {}
    for i, (t, _seq, row) in enumerate(arrivals):
        u = ue_col[row]
        j = last_seen.get(u)
        if j is not None:
            next_same[j] = t
        last_seen[u] = i
    return next_same


class SlottedUplink:
    """Mirror executor for the grant-free uplink event grammar.

    Constructed by :class:`~repro.net.session.RanSystem` when the
    slotted engine is selected; raises :class:`ValueError` when the
    configuration falls outside the supported envelope (see
    :func:`ineligibility`).
    """

    def __init__(self, system: "RanSystem"):
        reason = ineligibility(system)
        if reason is not None:
            raise ValueError(reason)
        self._system = system
        self.sim = system.sim
        self.tracer = system.tracer
        self.link = system.link
        self.upf = system.upf
        self.scheduler = system.gnb.scheduler
        self.faults = system.faults
        self.probe = ArrayLatencyProbe("ul")
        self.population = UePopulation(system.config.n_ues)
        self.cg_share = system.cg_share

        # Window arithmetic: the flat index over the UL timeline, the
        # UE-side minimum transmission length (two symbols, as in
        # repro.net.ue.Ue) and the per-UE CG capacity of each base
        # window (the share is fixed for the run).
        self._windex = system.scheme.ul_timeline().index()
        symbol_tc = (system.scheme.numerology.slot_duration_tc // 14)
        self.min_tx_tc = max(1, 2 * symbol_tc)
        self._cap_by_base = tuple(
            self.scheduler.cg_capacity_for(duration, self.cg_share)
            for duration in self._windex.durations)

        # Compiled layer tables.  UE side: APP..MAC transit draws plus
        # the PHY preparation draw, all on the per-UE stream.  gNB
        # side: the up-pipeline's five transit draws on the "gnb"
        # stream, optionally dilated by the fault harness.
        tx_delays = system._ue_tx_delays()
        self._ue_specs = tuple(_compile_sampler(tx_delays[name])
                               for name in _UE_LAYERS)
        self._prep_spec = _compile_sampler(tx_delays["PHY"])
        self._gnb_specs = tuple(
            _compile_sampler(layer.delay)
            for layer in system.gnb.up_pipeline.layers)
        self._gnb_draws = sum(1 for spec in self._gnb_specs if spec[0])
        self._dilation = (self.faults.processing_dilation
                          if self.faults is not None else None)
        # Chain-total form of the UE specs: the total transit is a sum,
        # so constant layers collapse to one precomputed term and the
        # lognormal ones zip against the peeked normals (stream order
        # is preserved — only lognormal layers consume a draw).
        self._chain_draws = sum(1 for spec in self._ue_specs if spec[0])
        self._peek_n = self._chain_draws + (1 if self._prep_spec[0] else 0)
        self._ue_ln = tuple((a, b) for kind, a, b in self._ue_specs
                            if kind)
        self._ue_const_tc = sum(tc_from_us(a)
                                for kind, a, _b in self._ue_specs
                                if not kind)

        # Exclusive block-served RNG streams.  Per-UE servers are
        # created lazily (sized from the UE's queued-packet count); the
        # gNB server is created when the run starts.
        self._rngs = system.rngs
        self._ue_servers: dict[int, LogNormalBlockServer] = {}
        self._gnb_server: LogNormalBlockServer | None = None

        # Pre-queued arrivals: (time, seq, row) tuples, sorted at run
        # start and merged into the loop so the live heap stays small.
        self._arrivals: list[tuple[int, int, int]] = []
        # Mirror event heap with its own monotone sequence counter —
        # pushes happen in the exact order the scalar handlers call
        # schedule/call_in, so same-tick ordering matches.
        self._heap: list[tuple] = []
        self._seq = 0
        # Open CG plans: (ue_id, window_start) -> [window_k, rows, bytes]
        self._plans: dict[tuple[int, int], list] = {}
        # Completion times (arrival at the gNB) of every planned
        # transmission still in the air — the gNB-side guard's "next
        # landing" when transmissions can fail.
        self._air_times: list[int] = []
        self._prop_tc = system.link.propagation_tc
        # Packets of each UE that may still draw on the UE's stream —
        # the UE-side fusion guard.  A packet's last possible UE-stream
        # draw is its PHY-prep (retransmission preps excepted), so the
        # count drops at the prep draw when the link can never fail,
        # and at transmit success / HARQ drop otherwise.
        self._ue_hot = [0] * (system.config.n_ues + 1)
        # gNB chains running on the per-layer event path; cohort fusion
        # waits until there are none.
        self._gnb_busy = 0
        channel = system.link.channel
        self._can_fail = (system.link.fault_gate is not None
                          or not (isinstance(channel, PerfectChannel)
                                  or (isinstance(channel,
                                                 IidErasureChannel)
                                      and channel.bler == 0.0)))
        # Lazy per-UE trace category tuples (built only when tracing).
        self._trace_cats: dict[int, tuple[str, ...]] = {}
        self._ran = False

    # ------------------------------------------------------------------
    # seeding
    # ------------------------------------------------------------------
    def queue_uplink(self, arrivals: list[int], payload_bytes: int,
                     ue_id: int) -> None:
        """Buffer UL data arrivals (mirror of ``RanSystem.queue_uplink``
        — one pending entry per packet, seq in call order)."""
        if not 1 <= ue_id <= self.population.n_ues:
            raise ValueError(
                f"ue_id must be in 1..{self.population.n_ues}, "
                f"got {ue_id}")
        if self._ran:
            raise RuntimeError(
                "slotted engine cannot queue traffic after run()")
        packet_ids = self._system._packet_ids
        pop = self.population
        pending = self._arrivals
        for arrival in arrivals:
            row = pop.add_packet(ue_id, next(packet_ids),
                                 payload_bytes, arrival)
            self._seq = seq = self._seq + 1
            pending.append((arrival, seq, row))

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _ue_server(self, ue_id: int) -> LogNormalBlockServer:
        server = self._ue_servers.get(ue_id)
        if server is None:
            # Six draws per fault-free packet transit (five layers +
            # PHY prep); size the block to serve the whole UE in one
            # vectorized draw, with headroom for retransmission preps.
            queued = int(self.population.queued[ue_id])
            block = min(DEFAULT_BLOCK, max(8, 6 * queued + 2))
            server = LogNormalBlockServer(
                self._rngs.stream(f"ue{ue_id}"), block)
            self._ue_servers[ue_id] = server
        return server

    def _categories(self, ue_id: int) -> tuple[str, ...]:
        cats = self._trace_cats.get(ue_id)
        if cats is None:
            cats = tuple(f"ue{ue_id}.{name.lower()}"
                         for name in _UE_LAYERS)
            self._trace_cats[ue_id] = cats
        return cats

    def _push(self, time: int, *fields) -> None:
        """Schedule a mirror event with the next sequence number."""
        self._seq = seq = self._seq + 1
        heappush(self._heap, (time, seq) + fields)

    def _start(self) -> None:
        """Fix the run's execution modes and open the shared streams."""
        tracer = self.tracer
        # Tracing needs per-layer emissions in event order; fault hooks
        # read sim.now.  Either one forces the per-event path / clock.
        self._emit = tracer.emit if tracer.enabled else None
        self._fuse_ue = self._emit is None
        self._precise = self._emit is not None or self.faults is not None
        # gNB-side fusion additionally requires fault-free layers (the
        # dilation hook reads per-category state in event order).
        self._fuse_gnb = self._fuse_ue and self._dilation is None
        # Transmissions that neither fail nor draw fold the window-end
        # hop into the landing event (_AIR).
        link = self.link
        self._fast_tx = (not self._can_fail and self._emit is None
                         and link._uniforms is None
                         and link.fault_gate is None)
        if self._fast_tx:
            link.last_fault_fate = None
        # UPF completions have no side effects beyond the probe, so in
        # imprecise runs (no tracer, no fault hooks reading the clock)
        # they skip the heap and are drained after the loop.
        self._done: list[tuple[int, int, int, int]] | None = (
            None if self._precise else [])
        block = min(4 * DEFAULT_BLOCK, max(64, 5 * len(self.population)))
        self._gnb_server = server = LogNormalBlockServer(
            self._rngs.stream("gnb"), block)
        self._gnb_reader = _ChunkReader(server.peek, server.commit)
        upf_delay = self.upf.delay
        self._upf_reader = _ChunkReader(getattr(upf_delay, "peek", None),
                                        getattr(upf_delay, "commit", None))

    # ------------------------------------------------------------------
    # the executor
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Drain pending arrivals and the mirror heap (the slotted
        ``run_until_idle``).

        A ``(time, seq)`` merge of the pre-passed plan stream, the
        sorted arrivals and the event heap.  The side streams' seqs
        predate all runtime seqs, so same-tick ties resolve to them —
        as in the scalar engine, where queue-time ``schedule()`` calls
        get the earliest sequence numbers.  At most one side stream is
        live: the pre-pass consumes every arrival.
        """
        self._ran = True
        self._start()
        arrivals = self._arrivals
        arrivals.sort()
        n_arr = len(arrivals)
        fast_plan = (self._fuse_ue and not self._can_fail
                     and not self._precise and n_arr > 0
                     and buffering_enabled())
        if fast_plan:
            plans = self._prepass(arrivals)
            ai = n_arr
            next_same: list[int] = []
        else:
            plans = []
            next_same = _next_same_ue(arrivals, self.population.ue)
            ai = 0
        n_plans = len(plans)
        pi = 0
        heap = self._heap
        precise = self._precise
        advance = self.sim.advance_to
        last_t = self.sim.now
        plan_cg = self._plan_cg
        while True:
            if pi < n_plans and (not heap or plans[pi] < heap[0]):
                t, _seq, row, u, prep_us = plans[pi]
                pi += 1
                last_t = t
                plan_cg(row, u, t, prep_us)
                continue
            if ai < n_arr and (not heap or arrivals[ai] < heap[0]):
                t, _seq, row = arrivals[ai]
                if precise:
                    advance(t)
                else:
                    last_t = t
                self._arrive(row, t, next_same[ai])
                ai += 1
                continue
            if not heap:
                break
            event = heappop(heap)
            t = event[0]
            if precise:
                advance(t)
            else:
                last_t = t
            code = event[2]
            if code == _GNB_LAYER:
                self._gnb_layer_done(event, t)
            elif code == _UPF_DONE:
                self._record(((t, 0, event[3], event[4]),))
            elif code == _AIR or code == _DELIVER:
                self._land(event, t)
            elif code == _UE_LAYER:
                self._ue_layer_done(event, t)
            elif code == _PLAN:
                plan_cg(event[3], event[4], t, event[5])
            elif code == _TRANSMIT:
                self._transmit(event[3], event[4], t)
            else:  # _RETRANSMIT
                for row in event[4]:
                    plan_cg(row, event[3], t, None, True)
        self._finish(last_t)

    # ------------------------------------------------------------------
    # UE chain (Fig 3 ①-⑤)
    # ------------------------------------------------------------------
    def _prepass(self, arrivals: list[tuple[int, int, int]]
                 ) -> list[tuple[int, int, int, int, float]]:
        """Vectorized UE stage for never-fail untraced runs.

        Every packet is planned exactly once after a fixed draw-count
        transit, so the chain math runs over all of a UE's arrivals at
        once (packet ``i`` owns draws ``[i*peek_n, (i+1)*peek_n)`` of
        its stream), and the rare overlapping chains are replayed draw
        for draw on a local heap in the scalar engine's ``(time, seq)``
        order.  Exactly ``peek_n`` draws commit per packet on either
        branch, so the sequential layout realigns after every cluster
        and the vectorized values stay valid.  Returns the sorted plan
        stream ``(chain_end, arrival_seq, row, ue, prep_us)``.
        """
        pop = self.population
        ue_col = pop.ue
        bp = pop.budget_processing
        header = pop.header
        exp = math.exp
        rnd = round
        TCS = TC_PER_SECOND
        USP = _US_PER_SECOND
        ue_specs = self._ue_specs
        chain_draws = self._chain_draws
        peek_n = self._peek_n
        ue_const_tc = self._ue_const_tc
        prep_kind, prep_a, prep_b = self._prep_spec
        plans: list[tuple[int, int, int, int, float]] = []
        by_ue: dict[int, list[tuple[int, int, int]]] = {}
        for entry in arrivals:
            by_ue.setdefault(ue_col[entry[2]], []).append(entry)
        ln_mu = np.array([a for kind, a, _b in ue_specs if kind]
                         + ([prep_a] if prep_kind else []))
        ln_sig = np.array([b for kind, _a, b in ue_specs if kind]
                          + ([prep_b] if prep_kind else []))
        kind0, a0, b0 = ue_specs[0]
        for u, entries in by_ue.items():
            server = self._ue_server(u)
            m = len(entries)
            zz = server.peek(peek_n * m)
            if zz is None:
                raise RuntimeError("block drawing disabled mid-run")
            # The exp stays scalar libm — np.exp differs from math.exp
            # by 1 ulp on some inputs, and bit-identity tolerates none.
            # np.rint on these magnitudes is bitwise round().
            args = np.tile(ln_mu, m) + np.tile(ln_sig, m) * zz
            vals = list(map(exp, args.tolist()))
            tcs = np.rint(np.asarray(vals) * TCS / USP)
            tcs = tcs.astype(np.int64).reshape(m, peek_n)
            chain = tcs[:, :chain_draws].sum(axis=1) + ue_const_tc
            ends = (np.fromiter((e[0] for e in entries), np.int64, m)
                    + chain).tolist()
            chain_l = chain.tolist()
            zzl: list[float] | None = None
            i = 0
            c = 0
            while i < m:
                a_i, aseq_i, row_i = entries[i]
                nxt = entries[i + 1][0] if i + 1 < m else _FAR_FUTURE
                end_i = ends[i]
                if nxt > end_i:
                    # Strictly-later next arrival: the sequential
                    # layout is the true draw order and the vectorized
                    # values stand.
                    plans.append((end_i, aseq_i, row_i, u,
                                  vals[c + chain_draws] if prep_kind
                                  else prep_a))
                    bp[row_i] += chain_l[i]
                    header[row_i] = _UE_WIRE_HEADER
                    i += 1
                    c += peek_n
                    continue
                # Overlap cluster: interleaved replay.  Arrivals admit
                # before any local event at or after them (queue-time
                # seqs sort first in the scalar heap); local ties break
                # on push order, the scalar seq order for same-tick
                # events.
                if zzl is None:
                    zzl = zz.tolist()
                i += 1
                if kind0:
                    d = exp(a0 + b0 * zzl[c])
                    c += 1
                else:
                    d = a0
                mini = [(a_i + rnd(d * TCS / USP), 0, row_i, 0, aseq_i,
                         a_i)]
                order = 1
                while mini:
                    while i < m and entries[i][0] <= mini[0][0]:
                        a_j, sq_j, r_j = entries[i]
                        i += 1
                        if kind0:
                            d = exp(a0 + b0 * zzl[c])
                            c += 1
                        else:
                            d = a0
                        heappush(mini, (a_j + rnd(d * TCS / USP), order,
                                        r_j, 0, sq_j, a_j))
                        order += 1
                    tau, _o, r_j, k, sq_j, a_j = heappop(mini)
                    k += 1
                    if k < 5:
                        kk, aa, bb = ue_specs[k]
                        if kk:
                            d = exp(aa + bb * zzl[c])
                            c += 1
                        else:
                            d = aa
                        heappush(mini, (tau + rnd(d * TCS / USP), order,
                                        r_j, k, sq_j, a_j))
                        order += 1
                    else:
                        # MAC exit: PHY-prep draw, plan recorded.
                        if prep_kind:
                            prep_us = exp(prep_a + prep_b * zzl[c])
                            c += 1
                        else:
                            prep_us = prep_a
                        plans.append((tau, sq_j, r_j, u, prep_us))
                        bp[r_j] += tau - a_j
                        header[r_j] = _UE_WIRE_HEADER
            server.commit(peek_n * m)
        plans.sort()
        return plans

    def _arrive(self, row: int, now: int, next_same: int) -> None:
        """APP hands a packet to the UE stack (Fig 3 ①).

        Commits the whole transit chain plus the PHY-prep draw as one
        ``_PLAN`` event when the UE-side guard holds — nothing of the UE
        in flight and its next arrival (``next_same``) strictly after
        the chain end — else enters the per-layer path.
        """
        pop = self.population
        u = pop.ue[row]
        if self._emit is not None:
            self._emit(now, self._categories(u)[0], "send",
                       packet_id=pop.packet_id[row])
        chain_draws = self._chain_draws
        if self._fuse_ue and self._ue_hot[u] == 0 and chain_draws:
            server = self._ue_server(u)
            peeked = server.peek(self._peek_n)
            if peeked is not None:
                # Python-float math: np.float64 scalar ops cost ~4×
                # (same IEEE results either way).
                zs = peeked.tolist()
                exp = math.exp
                total = self._ue_const_tc
                for z, (a, b) in zip(zs, self._ue_ln):
                    total += round(exp(a + b * z) * TC_PER_SECOND
                                   / _US_PER_SECOND)
                end = now + total
                if next_same > end:
                    prep_kind, prep_a, prep_b = self._prep_spec
                    if prep_kind:
                        prep_us = exp(prep_a + prep_b * zs[chain_draws])
                    else:
                        prep_us = prep_a
                    server.commit(self._peek_n)
                    pop.budget_processing[row] += total
                    pop.header[row] = _UE_WIRE_HEADER
                    if self._can_fail:
                        self._ue_hot[u] = 1
                    self._push(end, _PLAN, row, u, prep_us)
                    return
        self._ue_hot[u] += 1
        self._enter_ue_layer(row, 0, now)

    def _enter_ue_layer(self, row: int, layer_k: int, now: int) -> None:
        kind, a, b = self._ue_specs[layer_k]
        ue_id = self.population.ue[row]
        if kind:
            delay_us = self._ue_server(ue_id).sample(a, b)
        else:
            delay_us = a
        if self._emit is not None:
            self._emit(now, self._categories(ue_id)[layer_k], "enter",
                       packet_id=self.population.packet_id[row],
                       layer=_UE_LAYERS[layer_k])
        self._push(now + tc_from_us(delay_us), _UE_LAYER, row, layer_k,
                   delay_us, now)

    def _ue_layer_done(self, event: tuple, now: int) -> None:
        row, layer_k, delay_us, submitted = event[3:7]
        pop = self.population
        pop.budget_processing[row] += now - submitted
        pop.header[row] += _UE_HEADER_DELTAS[layer_k]
        ue_id = pop.ue[row]
        if self._emit is not None:
            self._emit(now, self._categories(ue_id)[layer_k], "exit",
                       packet_id=pop.packet_id[row],
                       layer=_UE_LAYERS[layer_k], delay_us=delay_us)
        if layer_k < 4:
            self._enter_ue_layer(row, layer_k + 1, now)
        else:
            self._plan_cg(row, ue_id, now)

    # ------------------------------------------------------------------
    # CG planning
    # ------------------------------------------------------------------
    def _plan_cg(self, row: int, ue_id: int, now: int,
                 prep_us: float | None = None,
                 is_retransmission: bool = False) -> None:
        """Mirror of ``Ue._plan_grant_free`` on columnar state.

        ``prep_us`` carries a PHY-prep delay the UE stage already drew
        (and committed) for this packet; None means draw it here, as
        the scalar planner does.
        """
        if prep_us is None:
            kind, a, b = self._prep_spec
            if kind:
                prep_us = self._ue_server(ue_id).sample(a, b)
            else:
                prep_us = a
            if not self._can_fail and not is_retransmission:
                # Last possible draw of this packet on the UE stream
                # (the link never fails, so no retransmission preps
                # follow): the packet stops blocking chain fusion.
                self._ue_hot[ue_id] -= 1
        prep_tc = round(prep_us * TC_PER_SECOND / _US_PER_SECOND)
        pop = self.population
        wire = pop.payload[row] + pop.header[row]
        plans = self._plans

        def used(start: int) -> int:
            plan = plans.get((ue_id, start))
            return plan[2] if plan is not None else 0

        k, start, end = first_joining_window(
            self._windex, now + prep_tc, self.min_tx_tc, wire,
            self._cap_by_base, used)
        plan = plans.get((ue_id, start))
        if plan is None:
            plans[(ue_id, start)] = [k, [row], wire]
            self._seq = seq = self._seq + 1
            if self._fast_tx:
                heappush(self._heap, (end + self._prop_tc, seq, _AIR,
                                      ue_id, start))
            else:
                heappush(self._heap, (end, seq, _TRANSMIT, ue_id, start))
                heappush(self._air_times, end + self._prop_tc)
        else:
            plan[1].append(row)
            plan[2] += wire
        pop.budget_processing[row] += prep_tc
        pop.budget_protocol[row] += end - now - prep_tc
        if self._emit is not None:
            self._emit(now, self._categories(ue_id)[4], "cg_planned",
                       packet_id=pop.packet_id[row], window_start=start,
                       retransmission=is_retransmission)

    # ------------------------------------------------------------------
    # air (Fig 3 ⑦-⑧)
    # ------------------------------------------------------------------
    def _fly(self, landings: list[tuple]) -> list[int]:
        """Window end plus propagation of ``_AIR`` blocks, on a link
        that can neither fail nor draw; returns the landed rows.

        The window-end bookkeeping ``_transmit`` would do one
        propagation delay earlier is all counter sums, so charging it
        at the landing cannot reorder anything observable.
        """
        plans = self._plans
        blocks_sent = self.population.blocks_sent
        radio = self.population.budget_radio
        prop_tc = self._prop_tc
        caps = self._cap_by_base
        n = self._windex.n_windows
        allocated = used_total = 0
        rows: list[int] = []
        for event in landings:
            ue_id = event[3]
            window_k, block, used = plans.pop((ue_id, event[4]))
            blocks_sent[ue_id] += 1
            capacity = caps[window_k % n]
            allocated += capacity
            used_total += used if used <= capacity else capacity
            for row in block:
                radio[row] += prop_tc
            rows += block
        self.scheduler.account_cg_usage(allocated, used_total)
        self.link.counters.blocks_sent += len(landings)
        return rows

    def _transmit(self, ue_id: int, window_start: int,
                  now: int) -> None:
        """Mirror of ``Ue._transmit_planned`` + ``RanSystem._ul_over_air``
        + the failure half of ``AirLink.transmit``."""
        window_k, rows, used = self._plans.pop((ue_id, window_start))
        pop = self.population
        pop.blocks_sent[ue_id] += 1
        if self._emit is not None:
            self._emit(now, self._categories(ue_id)[4], "cg_tx",
                       window_start=window_start, packets=len(rows))
        self.scheduler.account_cg_usage(
            self._cap_by_base[window_k % self._windex.n_windows], used)
        link = self.link
        if link.decide_fate(now):
            if self._can_fail:
                # Delivered blocks can no longer trigger retransmission
                # preps — their packets stop blocking chain fusion.
                self._ue_hot[ue_id] -= len(rows)
            propagation_tc = link.propagation_tc
            for row in rows:
                pop.budget_radio[row] += propagation_tc
            self._push(now + propagation_tc, _DELIVER, rows)
            return
        # The block never lands; its air-time entry stays behind as a
        # stale lower bound (only ever conservative — it can suppress
        # a fusion, never permit a wrong one) and is swept by the next
        # delivery that passes it.
        link.counters.blocks_failed += 1
        if self._emit is not None:
            self._emit(now, "link", "block_failed", packets=len(rows))
        max_harq = link.max_harq
        survivors: list[int] = []
        for row in rows:
            if pop.retx[row] >= max_harq:
                pop.dropped[row] = True
                link.counters.packets_dropped += 1
                self._ue_hot[ue_id] -= 1
            else:
                pop.retx[row] += 1
                survivors.append(row)
        if not survivors:
            return
        feedback = self._system._ul_feedback
        if feedback is None:
            for row in survivors:
                self._plan_cg(row, ue_id, now, None, True)
            return
        if link.last_fault_fate == "dtx":
            feedback_at = feedback.dtx_detection_time(now)
        else:
            feedback_at = feedback.feedback_time(now)
        wait = feedback_at - now
        for row in survivors:
            pop.budget_protocol[row] += wait
        self._push(feedback_at, _RETRANSMIT, ue_id, survivors)

    def _land(self, event: tuple, now: int) -> None:
        """A block reaches the gNB (``_AIR`` or ``_DELIVER``).

        gnb.receive_ul_block with no radio head charges zero RADIO and
        forwards the block to the up-pipeline in order; the scalar
        call_in(0, ...) hop preserves the same relative push order, so
        entering PHY here is bit-identical.  With cohort fusion on, the
        same-tick sibling landings join the block.
        """
        code = event[2]
        landings = [event]
        fuse = self._fuse_gnb and self._gnb_busy == 0
        if fuse:
            heap = self._heap
            while heap and heap[0][0] == now and heap[0][2] == code:
                landings.append(heappop(heap))
        air_times = self._air_times
        if code == _AIR:
            rows = self._fly(landings)
        else:
            rows = [row for landing in landings for row in landing[3]]
            # Retire the blocks' own air-time entries (== now) plus any
            # stale entries of failed blocks they have passed.
            while air_times[0] < now:
                heappop(air_times)
            for _landing in landings:
                heappop(air_times)
        if fuse:
            if code == _AIR:
                # fast_tx keeps no air-time heap: nothing fails, and
                # every landing sits on the window-end + propagation
                # grid, so the next one is read off the window index.
                windex = self._windex
                k = windex.first_ending_after(now - self._prop_tc)
                next_landing = windex.bounds(k)[1] + self._prop_tc
            else:
                next_landing = air_times[0] if air_times else _FAR_FUTURE
            if self._gnb_cohort(rows, now, next_landing):
                return
        for row in rows:
            self._gnb_busy += 1
            self._gnb_enter(row, 0, now)

    # ------------------------------------------------------------------
    # gNB (Fig 3 ⑨)
    # ------------------------------------------------------------------
    def _gnb_cohort(self, rows: list[int], now: int,
                    next_landing: int) -> bool:
        """Fused gNB stage for a same-tick cohort; True if committed.

        The cohort's five-layer chains run on a local heap keyed
        ``(time, push order)`` — the ``(time, seq)`` merge order the
        scalar engine gives those events.  The result commits only if
        the cohort's last exit is before ``next_landing``: then no other
        event can consume the ``gnb`` stream inside the cohort's span,
        and its draws and UPF forwards happen in scalar order.
        Otherwise nothing is consumed and the caller takes the
        per-layer path.
        """
        reader = self._gnb_reader
        enough = reader.ensure(self._gnb_draws * len(rows))
        if next_landing <= now or not enough:
            return False
        exp = math.exp
        rnd = round
        TCS = TC_PER_SECOND
        USP = _US_PER_SECOND
        buf = reader.buf
        zi = reader.pos
        specs = self._gnb_specs
        kind0, a0, b0 = specs[0]
        mini = []
        for order, row in enumerate(rows):
            if kind0:
                d = exp(a0 + b0 * buf[zi])
                zi += 1
            else:
                d = a0
            mini.append((now + rnd(d * TCS / USP), order, row, 0))
        heapify(mini)
        order = len(rows)
        exits = []
        while mini:
            tau, _o, row, k = heappop(mini)
            k += 1
            if k < 5:
                kind, a, b = specs[k]
                if kind:
                    d = exp(a + b * buf[zi])
                    zi += 1
                else:
                    d = a
                heappush(mini, (tau + rnd(d * TCS / USP), order, row, k))
                order += 1
            else:
                exits.append((tau, row))
        if exits[-1][0] >= next_landing:
            return False
        reader.pos = zi
        self._system.gnb.counters.ul_packets_out += len(rows)
        bp = self.population.budget_processing
        for tau, row in exits:
            bp[row] += tau - now
        self._upf_forward(exits)
        return True

    def _gnb_enter(self, row: int, layer_k: int, now: int) -> None:
        """Submit a packet to gNB layer ``layer_k`` (per-layer path)."""
        kind, a, b = self._gnb_specs[layer_k]
        if kind:
            z = self._gnb_reader.take()
            delay_us = (math.exp(a + b * z) if z is not None
                        else self._gnb_server.sample(a, b))
        else:
            delay_us = a
        category = _GNB_CATEGORIES[layer_k]
        if self._dilation is not None:
            delay_us = delay_us * self._dilation(category)
        if self._emit is not None:
            self._emit(now, category, "enter",
                       packet_id=self.population.packet_id[row],
                       layer=_GNB_LAYERS[layer_k])
        self._push(now + tc_from_us(delay_us), _GNB_LAYER, row, layer_k,
                   delay_us, now)

    def _gnb_layer_done(self, event: tuple, now: int) -> None:
        row, layer_k, delay_us, submitted = event[3:7]
        self.population.budget_processing[row] += now - submitted
        if self._emit is not None:
            self._emit(now, _GNB_CATEGORIES[layer_k], "exit",
                       packet_id=self.population.packet_id[row],
                       layer=_GNB_LAYERS[layer_k], delay_us=delay_us)
        if layer_k < 4:
            self._gnb_enter(row, layer_k + 1, now)
            return
        # SDAP exit (mirror of Gnb._ul_done).
        self._gnb_busy -= 1
        self._system.gnb.counters.ul_packets_out += 1
        self._upf_forward(((now, row),))

    # ------------------------------------------------------------------
    # core (Fig 3 ⑩)
    # ------------------------------------------------------------------
    def _upf_forward(self, exits: Sequence[tuple[int, int]]) -> None:
        """The gNB hands packets to the UPF, in ``(time, row)`` order
        (mirror of ``Upf._process``): one delay draw plus any outage
        each."""
        upf = self.upf
        reader = self._upf_reader
        buffered = reader.ensure(len(exits))
        values = reader.buf
        i = reader.pos
        outage = upf.outage
        emit = self._emit
        done = self._done
        for now, row in exits:
            if buffered:
                upf_us = values[i]
                i += 1
            else:
                upf_us = upf.delay.sample(upf.rng)
            delay_tc = round(upf_us * TC_PER_SECOND / _US_PER_SECOND)
            if outage is not None:
                delay_tc += outage()
            if emit is not None:
                emit(now, "upf", "ul_forward",
                     packet_id=self.population.packet_id[row])
            if done is None:
                self._push(now + delay_tc, _UPF_DONE, row, now)
            else:
                self._seq = seq = self._seq + 1
                done.append((now + delay_tc, seq, row, now))
        reader.pos = i

    def _record(self, exits: Iterable[tuple[int, int, int, int]]) -> None:
        """UPF exits ``(time, seq, row, submitted)``, in dispatch
        order: the packets are delivered."""
        pop = self.population
        bp = pop.budget_processing
        bprot = pop.budget_protocol
        brad = pop.budget_radio
        created = pop.created
        delivered = pop.delivered_tc
        latencies = self.probe._latencies_tc
        tot_proc = tot_prot = tot_rad = 0
        for now, _seq, row, submitted in exits:
            proc = bp[row] + (now - submitted)
            bp[row] = proc
            delivered[row] = now
            latencies.append(now - created[row])
            tot_proc += proc
            tot_prot += bprot[row]
            tot_rad += brad[row]
        totals = self.probe._budget_totals
        totals[LatencySource.PROCESSING] += tot_proc
        totals[LatencySource.PROTOCOL] += tot_prot
        totals[LatencySource.RADIO] += tot_rad

    def _finish(self, last_t: int) -> None:
        """Drain deferred UPF completions and settle the clock.

        The deferred completions run in the ``(time, seq)`` order the
        heap would have dispatched them — the probe's append order is
        part of the bit-identity contract.
        """
        done = self._done
        if done:
            done.sort()
            self._record(done)
            last_t = max(last_t, done[-1][0])
            done.clear()
        if not self._precise and last_t > self.sim.now:
            self.sim.advance_to(last_t)
