"""Campaign execution: fan points out across worker processes.

:class:`CampaignRunner` executes a :class:`~repro.runner.campaign.Campaign`
either serially in-process or across a pool of ``spawn``-start worker
processes.  Three properties make the two modes interchangeable:

- every point carries its own derived seed, so no point's randomness
  depends on which worker runs it or what ran before it;
- merged results are assembled in campaign order, keyed by point
  digest, so the document is independent of completion order;
- workers never touch shared mutable state — the result cache and the
  journal are consulted and written only by the coordinating process.

Consequently a parallel run is bit-identical to a serial run of the
same campaign, which the test-suite asserts.

The runner is also *hardened* (docs/ROBUSTNESS.md): a worker that
raises, segfaults or wedges fails — after bounded retries — only its
own point, never the campaign.  Failure handling is deterministic in
everything that reaches the result document: retries are *counted* (in
:class:`PointResult.attempts`), never timed, and a retried point
recomputes from its own derived seed so the payload is the same
whichever attempt produced it.  The wall clock is read only for the
campaign-level ``wall_clock_s`` span and for the liveness timeout that
detects wedged workers (the ``no-wall-clock`` finding for
``time.perf_counter`` here is a reviewed entry of
``analyze-baseline.json``); neither can alter a payload.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_context
from typing import TYPE_CHECKING, Any, Callable

from repro.runner import envconfig
from repro.runner.cache import ResultCache, source_fingerprint
from repro.runner.campaign import Campaign, ScenarioPoint
from repro.runner.journal import CampaignJournal
from repro.runner.scenarios import run_point

if TYPE_CHECKING:
    from repro.runner.dispatch import DispatchStats

__all__ = ["CampaignResult", "CampaignRunner", "PointResult"]


@dataclass(frozen=True)
class PointResult:
    """One executed (or replayed) scenario point.

    ``attempts`` counts executions including the successful (or final
    failing) one; ``error`` is None for a successful point and holds
    the last failure description otherwise (``result`` is then empty).
    ``from_journal`` marks points replayed from a resume journal rather
    than executed or cache-replayed in this run.
    """

    point: ScenarioPoint
    result: dict[str, Any]
    from_cache: bool
    attempts: int = 1
    error: str | None = None
    from_journal: bool = False

    @property
    def failed(self) -> bool:
        """Whether the point exhausted its attempts without a payload."""
        return self.error is not None


@dataclass(frozen=True)
class _Outcome:
    """Internal record of how one pending point ended up."""

    result: dict[str, Any] | None
    attempts: int
    error: str | None


@dataclass(frozen=True)
class CampaignResult:
    """The merged outcome of one campaign run."""

    campaign: Campaign
    point_results: tuple[PointResult, ...]
    workers: int
    cache_hits: int
    cache_misses: int
    wall_clock_s: float
    journal_replays: int = 0
    warnings: tuple[str, ...] = ()
    #: Present only for dispatched runs (repro.runner.dispatch).
    dispatch: "DispatchStats | None" = None

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of points replayed from the result cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def failures(self) -> tuple[PointResult, ...]:
        """Points that exhausted their retry budget."""
        return tuple(pr for pr in self.point_results if pr.failed)

    @property
    def retries(self) -> int:
        """Total extra attempts beyond the first, across all points."""
        return sum(max(0, pr.attempts - 1) for pr in self.point_results)

    def metrics(self) -> dict[str, float]:
        """Flat ``"<point label>/<metric>"`` map of scalar metrics.

        Only int/float values are merged (sample lists and strings are
        artifact material, not gateable metrics); key order follows
        campaign order, so the rendering is deterministic.  A failed
        point has an empty result and thus contributes no metrics.
        """
        merged: dict[str, float] = {}
        for point_result in self.point_results:
            label = point_result.point.label
            for name in sorted(point_result.result):
                value = point_result.result[name]
                if isinstance(value, bool) \
                        or not isinstance(value, (int, float)):
                    continue
                merged[f"{label}/{name}"] = float(value)
        return merged

    def results_digest(self) -> str:
        """Content hash over every point's *full* payload, in order.

        The merged metrics table only carries scalars; this digest
        additionally covers sample lists (per-packet latencies) and
        string payload fields, so two runs agree on it iff their
        documents are bit-identical point for point.  It is what the
        dispatch CI job compares between a serial and a distributed
        run — execution provenance (cache hits, journal replays,
        attempt counts) is deliberately excluded because it may
        legitimately differ between equal runs.
        """
        hasher = hashlib.sha256()
        for point_result in self.point_results:
            record = {
                "point": point_result.point.digest(),
                "result": point_result.result,
                "error": point_result.error,
            }
            hasher.update(json.dumps(record,
                                     sort_keys=True).encode("utf-8"))
            hasher.update(b"\n")
        return hasher.hexdigest()


def _execute_point(point: ScenarioPoint) -> dict[str, Any]:
    """Worker-side entry: must stay a module-level importable."""
    return run_point(point)


def execute_with_retries(point: ScenarioPoint, max_retries: int
                         ) -> tuple[dict[str, Any] | None, int, str | None]:
    """Run one point in this process with the bounded-retry budget.

    Returns ``(payload, attempts, error)``: the first successful
    attempt's payload, or ``None`` with ``max_retries + 1`` attempts and
    the last error once the budget is spent.  The serial path, dispatch
    workers, the coordinator's inline drain and its collect-time
    recovery all retry through this one loop.
    """
    error = None
    for attempt in range(1, max_retries + 2):
        try:
            return _execute_point(point), attempt, None
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    return None, max_retries + 1, error


class CampaignRunner:
    """Executes campaigns through an optional pool and result cache.

    ``workers=1`` runs serially in-process; higher counts fan points
    out over ``spawn``-start processes (``fork`` would silently share
    whatever RNG/simulator state the parent already holds — ``spawn``
    makes every worker import the simulation fresh).  The pool is
    created lazily and reused across :meth:`run` calls so several
    campaigns (e.g. a whole benchmark session) share it; call
    :meth:`close` — or use the runner as a context manager — when done.

    Hardening knobs:

    - ``max_retries`` — extra attempts a failing point gets before it
      is recorded as failed (the campaign always completes).
    - ``timeout_s`` — parallel mode only: if *no* in-flight point
      completes within this window the pool is presumed wedged, its
      workers are killed, and every unfinished point is requeued
      (costing each one attempt).
    """

    def __init__(self, workers: int = 1,
                 cache: ResultCache | None = None,
                 fingerprint: str | None = None,
                 timeout_s: float | None = None,
                 max_retries: int = 2):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        if max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {max_retries}")
        self.workers = workers
        self.cache = cache
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self._fingerprint = fingerprint
        self._pool: ProcessPoolExecutor | None = None

    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """The source fingerprint cached results are keyed against."""
        if self._fingerprint is None:
            self._fingerprint = source_fingerprint()
        return self._fingerprint

    def _acquire_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=get_context("spawn"))
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _kill_pool(self) -> None:
        """Tear the pool down hard: SIGKILL workers, drop the object.

        Used when the pool is wedged (liveness timeout) or broken (a
        worker died); a fresh pool is created on the next acquire.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = list(getattr(pool, "_processes", None) or {})
        process_map = getattr(pool, "_processes", None) or {}
        workers = [process_map[pid] for pid in processes]
        pool.shutdown(wait=False, cancel_futures=True)
        for worker in workers:
            try:
                worker.kill()
            except (OSError, ValueError):
                pass
        for worker in workers:
            try:
                worker.join(timeout=5.0)
            except (OSError, ValueError, AssertionError):
                pass

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def run(self, campaign: Campaign,
            journal: CampaignJournal | None = None,
            resume: bool = False) -> CampaignResult:
        """Execute every point, merging results in campaign order.

        With a ``journal`` each completed point is checkpointed as soon
        as its payload is known; with ``resume`` additionally matching
        entries from a previous (interrupted) run are replayed instead
        of recomputed.  A point that keeps failing past ``max_retries``
        is recorded as failed — the campaign itself always completes.
        """
        # Measurement boundary: elapsed-time span only, never results.
        start_s = time.perf_counter()
        # One consistent URLLC5G_* reading for the whole campaign:
        # mid-run environment mutation is never observed.
        envconfig.refresh()
        warnings: list[str] = []
        if self.cache is not None:
            warnings.extend(self.cache.warnings)

        replayed: dict[str, tuple[dict[str, Any], int]] = {}
        if journal is not None:
            replayed = journal.start(campaign, self.fingerprint,
                                     resume=resume)

        cached: dict[str, dict[str, Any]] = {}
        pending: list[ScenarioPoint] = []
        for point in campaign.points:
            digest = point.digest()
            if digest in replayed:
                continue
            if self.cache is not None:
                payload = self.cache.lookup(digest, self.fingerprint)
                if payload is not None:
                    cached[digest] = payload
                    continue
            pending.append(point)

        outcomes: dict[str, _Outcome] = {}

        def record(point: ScenarioPoint, outcome: _Outcome) -> None:
            digest = point.digest()
            outcomes[digest] = outcome
            if outcome.result is None:
                return
            if self.cache is not None:
                self.cache.store(digest, self.fingerprint,
                                 outcome.result)
            if journal is not None:
                journal.record(digest, outcome.result, outcome.attempts)

        if pending:
            if self.workers == 1 or len(pending) == 1:
                for point in pending:
                    record(point, _Outcome(
                        *execute_with_retries(point, self.max_retries)))
            else:
                self._run_parallel(pending, record)
            if self.cache is not None:
                self.cache.save()

        if journal is not None:
            warnings.extend(w for w in journal.warnings
                            if w not in warnings)

        point_results: list[PointResult] = []
        for point in campaign.points:
            digest = point.digest()
            if digest in replayed:
                result, attempts = replayed[digest]
                point_results.append(PointResult(
                    point, result, from_cache=False, attempts=attempts,
                    from_journal=True))
            elif digest in cached:
                point_results.append(PointResult(
                    point, cached[digest], from_cache=True))
            else:
                outcome = outcomes[digest]
                point_results.append(PointResult(
                    point, outcome.result or {}, from_cache=False,
                    attempts=outcome.attempts, error=outcome.error))
        end_s = time.perf_counter()
        return CampaignResult(
            campaign=campaign,
            point_results=tuple(point_results),
            workers=self.workers,
            cache_hits=len(cached),
            cache_misses=len(pending),
            wall_clock_s=end_s - start_s,
            journal_replays=len(replayed),
            warnings=tuple(warnings),
        )

    # ------------------------------------------------------------------
    def _bump(self, point: ScenarioPoint, attempts: dict[str, int],
              error: str, requeue: list[ScenarioPoint],
              record: Callable[[ScenarioPoint, _Outcome], None]) -> None:
        """One attempt failed: requeue within budget, else record."""
        digest = point.digest()
        attempts[digest] += 1
        if attempts[digest] <= self.max_retries:
            requeue.append(point)
        else:
            record(point, _Outcome(None, attempts[digest], error))

    def _run_parallel(
            self, pending: list[ScenarioPoint],
            record: Callable[[ScenarioPoint, _Outcome], None]) -> None:
        """Submit-based fan-out with kill-and-requeue recovery.

        The outer loop resubmits requeued points on a (possibly fresh)
        pool; the inner loop drains completions.  ``wait`` with a
        liveness timeout detects a wedged pool: if nothing at all
        completes within ``timeout_s`` the workers are killed and every
        unfinished point costs one attempt.  A :class:`BrokenProcessPool`
        (worker segfaulted/was killed) likewise dooms all in-flight
        futures; affected points are requeued on a fresh pool.
        """
        attempts = {point.digest(): 0 for point in pending}
        queue = list(pending)
        while queue:
            batch, queue = queue, []
            requeue: list[ScenarioPoint] = []
            futures: dict[Future[dict[str, Any]], ScenarioPoint] = {}
            try:
                pool = self._acquire_pool()
                for point in batch:
                    futures[pool.submit(_execute_point, point)] = point
            except BrokenProcessPool:
                # The pool broke while we were still submitting: kill
                # it and charge every point of this batch one attempt.
                self._kill_pool()
                for future in futures:
                    future.cancel()
                for point in batch:
                    self._bump(point, attempts,
                               "worker process died (pool broken)",
                               requeue, record)
                queue = requeue
                continue
            while futures:
                done, _ = wait(futures, timeout=self.timeout_s,
                               return_when=FIRST_COMPLETED)
                if not done:
                    # Liveness timeout: nothing completed at all — the
                    # pool is wedged (e.g. a worker spinning forever).
                    self._kill_pool()
                    for point in futures.values():
                        self._bump(
                            point, attempts,
                            f"no progress within {self.timeout_s:g}s "
                            "(workers killed)", requeue, record)
                    futures = {}
                    break
                broken = False
                for future in done:
                    point = futures.pop(future)
                    try:
                        payload = future.result()
                    except BrokenProcessPool:
                        broken = True
                        self._bump(point, attempts,
                                   "worker process died (pool broken)",
                                   requeue, record)
                        continue
                    except Exception as exc:
                        self._bump(point, attempts,
                                   f"{type(exc).__name__}: {exc}",
                                   requeue, record)
                        continue
                    attempts[point.digest()] += 1
                    record(point, _Outcome(payload,
                                           attempts[point.digest()],
                                           None))
                if broken:
                    # Every future still in flight died with the pool.
                    for point in futures.values():
                        self._bump(point, attempts,
                                   "worker process died (pool broken)",
                                   requeue, record)
                    futures = {}
                    self._kill_pool()
            queue = requeue
