"""Tracing probes: span and count wrappers around each layer's public API.

:func:`install` replaces public functions and methods of ``runner``,
``sim``, ``net``, ``stack``, ``mac``, ``radio``, ``core`` and
``traffic`` with wrappers that record a span per call (and, where the
layer has one, a work count) into a :class:`~spans.SpanRecorder`, then
call the original.  Nothing under ``src/`` changes; :meth:`Probes.
uninstall` restores every original.  The wrappers never touch
arguments or results, so a traced run is bit-identical to an untraced
one (the self-tests check this on ``results_digest``).

Two layers need more than a wrapper around one call:

- ``stack``: a protocol layer's work is split between
  ``ProcessingLayer.process`` and the completion callback it schedules
  through ``Simulator.call_in``.  While ``process`` runs, the next
  ``call_in`` gets its callback wrapped in a span of the same layer, so
  a layer's self time covers both halves.
- ``sim.rng.streams`` counts generators *created*: a registry returns
  the same generator for a repeated name, so names already seen per
  registry are remembered in a weak-keyed table.
"""

from __future__ import annotations

import functools
import threading
import time
import weakref
from collections import Counter
from typing import Any, Callable

from spans import SpanRecorder

__all__ = ["FsOpsCounter", "Probes", "install"]

#: Filesystem operations of the dispatch queue protocol.
FS_OPS = ("replace", "unlink", "mkdir", "listdir", "read_text",
          "write_text", "append_text")


class FsOpsCounter:
    """Counts FsOps calls from any thread (heartbeats run in one).

    Constructing it installs the counting wrappers; :meth:`uninstall`
    restores the originals.
    """

    def __init__(self) -> None:
        from repro.runner.fsops import FsOps
        self.value = 0
        self._lock = threading.Lock()
        self._undo: list[tuple[Any, str, Any]] = []
        for name in FS_OPS:
            original = FsOps.__dict__[name]
            self._undo.append((FsOps, name, original))
            setattr(FsOps, name, self._counted(original))

    def _counted(self, original: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self._lock:
                self.value += 1
            return original(*args, **kwargs)
        return wrapper

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


class Probes:
    """The installed wrappers, their counts and result arrival times."""

    def __init__(self, spans: SpanRecorder):
        self.spans = spans
        self.counts: Counter[str] = Counter()
        #: perf_counter stamps of point results reaching the
        #: coordinator (journal records, or new dispatch done markers).
        self.arrivals: list[float] = []
        self.fs_ops: FsOpsCounter | None = None
        self._undo: list[tuple[Any, str, Any]] = []
        self._pending_layer: str | None = None
        self._markers_seen = 0

    # ------------------------------------------------------------------
    def _replace(self, owner: Any, name: str,
                 wrapper: Callable[..., Any]) -> None:
        original = (owner.__dict__[name] if isinstance(owner, type)
                    else getattr(owner, name))
        self._undo.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _timed(self, original: Callable[..., Any], span: str,
               count: str | None = None) -> Callable[..., Any]:
        spans, counts = self.spans, self.counts

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if count is not None:
                counts[count] += 1
            index = spans.open(span)
            try:
                return original(*args, **kwargs)
            finally:
                spans.close(index)
        return wrapper

    def wrap_method(self, cls: type, name: str, span: str,
                    count: str | None = None) -> None:
        self._replace(cls, name, self._timed(cls.__dict__[name], span,
                                             count))

    def wrap_function(self, modules: list[Any], name: str,
                      span: str) -> None:
        """Wrap a function everywhere it was imported by name."""
        original = getattr(modules[0], name)
        wrapper = self._timed(original, span)
        for module in modules:
            if getattr(module, name, None) is original:
                self._replace(module, name, wrapper)

    # ------------------------------------------------------------------
    def _install_runner(self) -> None:
        import repro.runner as runner
        from repro.runner import (
            bench, cache, dispatch, executor, journal, lease)

        self.wrap_function([cache, executor, dispatch, runner],
                           "source_fingerprint", "runner.fingerprint")
        self.wrap_method(cache.ResultCache, "store", "runner.cache.store")
        self.wrap_method(cache.ResultCache, "save", "runner.cache.save")
        self.wrap_method(executor.CampaignResult, "results_digest",
                         "runner.digest")
        self.wrap_function([bench, runner], "write_bench_json",
                           "runner.write")
        self.wrap_method(lease.QueueDir, "enqueue",
                         "runner.dispatch.enqueue")
        self.wrap_function([dispatch], "merge_worker_journals",
                           "runner.dispatch.merge")

        record = self._timed(journal.CampaignJournal.__dict__["record"],
                             "runner.journal.record",
                             "runner.journal.records")
        arrivals = self.arrivals

        def journal_record(*args: Any, **kwargs: Any) -> None:
            record(*args, **kwargs)
            arrivals.append(time.perf_counter())
        self._replace(journal.CampaignJournal, "record", journal_record)

        done_markers = lease.QueueDir.__dict__["done_markers"]

        def markers(queue: Any) -> dict[str, Any]:
            found = done_markers(queue)
            now = time.perf_counter()
            arrivals.extend([now] * (len(found) - self._markers_seen))
            self._markers_seen = max(self._markers_seen, len(found))
            return found
        self._replace(lease.QueueDir, "done_markers", markers)
        self.fs_ops = FsOpsCounter()

    def _install_sim(self) -> None:
        from repro.sim import engine, rng, slotted

        spans, counts = self.spans, self.counts
        run = engine.Simulator.__dict__["run"]

        def sim_run(sim: Any, *args: Any, **kwargs: Any) -> int:
            index = spans.open("sim.engine.run")
            try:
                executed = run(sim, *args, **kwargs)
            finally:
                spans.close(index)
            counts["sim.engine.events"] += executed
            return executed
        self._replace(engine.Simulator, "run", sim_run)

        queue_uplink = slotted.SlottedUplink.__dict__["queue_uplink"]

        def slotted_queue(uplink: Any, arrivals: list[int], *args: Any,
                          **kwargs: Any) -> Any:
            counts["sim.slotted.packets"] += len(arrivals)
            index = spans.open("sim.slotted.queue")
            try:
                return queue_uplink(uplink, arrivals, *args, **kwargs)
            finally:
                spans.close(index)
        self._replace(slotted.SlottedUplink, "queue_uplink",
                      slotted_queue)
        self.wrap_method(slotted.SlottedUplink, "run", "sim.slotted.run")

        stream = rng.RngRegistry.__dict__["stream"]
        seen: weakref.WeakKeyDictionary[Any, set[str]] = \
            weakref.WeakKeyDictionary()

        def rng_stream(registry: Any, name: str) -> Any:
            names = seen.get(registry)
            if names is None:
                names = seen[registry] = set()
            if name not in names:
                names.add(name)
                counts["sim.rng.streams"] += 1
            index = spans.open("sim.rng.stream")
            try:
                return stream(registry, name)
            finally:
                spans.close(index)
        self._replace(rng.RngRegistry, "stream", rng_stream)

    def _install_stack(self) -> None:
        from repro.sim import engine
        from repro.stack import layers

        spans, counts = self.spans, self.counts
        process = layers.ProcessingLayer.__dict__["process"]
        call_in = engine.Simulator.__dict__["call_in"]

        def layer_process(layer: Any, packet: Any,
                          on_done: Callable[..., Any]) -> None:
            name = "stack." + layer.name.lower()
            counts[name + ".calls"] += 1
            index = spans.open(name)
            self._pending_layer = name
            try:
                process(layer, packet, on_done)
            finally:
                self._pending_layer = None
                spans.close(index)

        def sim_call_in(sim: Any, delay: int,
                        callback: Callable[..., Any], *args: Any) -> Any:
            name = self._pending_layer
            if name is not None:
                # The layer's completion half, run later by the engine.
                self._pending_layer = None
                inner = callback

                def callback(*cb_args: Any) -> Any:
                    index = spans.open(name)
                    try:
                        return inner(*cb_args)
                    finally:
                        spans.close(index)
            return call_in(sim, delay, callback, *args)
        self._replace(layers.ProcessingLayer, "process", layer_process)
        self._replace(engine.Simulator, "call_in", sim_call_in)

    def _install_model(self) -> None:
        import repro.core as core
        import repro.traffic as traffic
        from repro.core import design_space, latency_model
        from repro.mac import scheduler
        from repro.net import probes, session
        from repro.radio import interface
        from repro.runner import bench, scenarios
        from repro.sim import slotted
        from repro.traffic import generators

        self.wrap_method(session.RanSystem, "__init__",
                         "net.system_build")
        for probe in (probes.LatencyProbe, slotted.ArrayLatencyProbe):
            for name in ("summary", "fraction_within", "latencies_us"):
                self.wrap_method(probe, name, "net.probe_summary")
        self.wrap_method(scheduler.GnbMacScheduler, "receive_sr",
                         "mac.scheduler.sr", "mac.scheduler.sr_calls")
        self.wrap_method(interface.InterfaceBus, "submission_latency_us",
                         "radio.submission", "radio.submission_calls")
        self.wrap_function([design_space, core, scenarios, bench],
                           "enumerate_common_configurations",
                           "core.enumerate")
        self.wrap_method(latency_model.LatencyModel, "extremes",
                         "core.extremes", "core.extremes_calls")
        self.wrap_function([generators, traffic, scenarios],
                           "uniform_in_horizon", "traffic.arrivals")

    # ------------------------------------------------------------------
    def uninstall(self) -> None:
        """Restore every wrapped original (newest first)."""
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        if self.fs_ops is not None:
            self.fs_ops.uninstall()
            self.fs_ops = None


def install(spans: SpanRecorder) -> Probes:
    """Wrap every layer's public entry points; returns the handle."""
    probes = Probes(spans)
    probes._install_runner()
    probes._install_sim()
    probes._install_stack()
    probes._install_model()
    return probes
