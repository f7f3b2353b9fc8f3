"""Periodic transmission-opportunity timelines.

Every duplexing scheme in the library (TDD Common Configuration,
Mini-Slot, Slot Format, FDD) is lowered to two periodic sets of
*windows* — half-open Tc intervals ``[start, end)`` in which the medium
is available for DL or UL transmission — plus periodic *instants* for
control signalling and scheduling.  The worst-case latency analysis
(paper Fig 4 / Table 1) and the discrete-event MAC scheduler both run on
this single abstraction, which guarantees that the analytical and
simulated models agree on what the protocol permits.

Three completion rules capture how 5G actually grants access:

- **slot-aligned, strict** (DL data): control information is emitted once
  per transmission window, at its start; data arriving at or after a
  window's start has missed that window ("the specific slot is already
  allocated for other DL data", §5) and completes at the end of the next
  window that starts strictly later.
- **slot-aligned** (granted UL data): the grant designates a window; the
  first window starting at or after the grant becomes usable.
- **joining** (grant-free UL, scheduling requests): the UE owns
  pre-allocated resources across the whole UL region and can start on
  any symbol with enough remaining room, completing at the window end.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

__all__ = ["Window", "WindowIndex", "OpportunityTimeline",
           "PeriodicInstants", "first_joining_window"]


@dataclass(frozen=True, order=True)
class Window:
    """Half-open interval ``[start, end)`` in Tc ticks."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(
                f"window must satisfy 0 <= start < end, "
                f"got [{self.start}, {self.end})")

    @property
    def duration(self) -> int:
        return self.end - self.start

    def contains(self, time: int) -> bool:
        return self.start <= time < self.end

    def shifted(self, offset: int) -> "Window":
        return Window(self.start + offset, self.end + offset)


def _validated(windows: Iterable[Window], period: int) -> tuple[Window, ...]:
    ordered = tuple(sorted(windows))
    previous_end = 0
    for window in ordered:
        if window.end > period:
            raise ValueError(
                f"window {window} exceeds the period ({period})")
        if window.start < previous_end:
            raise ValueError(f"windows overlap near {window}")
        previous_end = window.end
    return ordered


class OpportunityTimeline:
    """Periodic windows with absolute-time queries.

    The window list describes one period; the timeline repeats it
    forever.  All queries take and return absolute Tc ticks.
    """

    def __init__(self, period_tc: int, windows: Iterable[Window]):
        if period_tc <= 0:
            raise ValueError(f"period must be positive, got {period_tc}")
        self.period_tc = int(period_tc)
        self.windows = _validated(windows, self.period_tc)
        self._index: "WindowIndex | None" = None

    def index(self) -> "WindowIndex":
        """Cached :class:`WindowIndex` over this (immutable) timeline."""
        if self._index is None:
            self._index = WindowIndex(self)
        return self._index

    # ------------------------------------------------------------------
    # iteration
    # ------------------------------------------------------------------
    def windows_from(self, time: int) -> Iterator[Window]:
        """Absolute windows whose end is after ``time``, in order."""
        if time < 0:
            time = 0
        if not self.windows:
            return
        cycle = time // self.period_tc
        while True:
            offset = cycle * self.period_tc
            for window in self.windows:
                shifted = window.shifted(offset)
                if shifted.end > time:
                    yield shifted
            cycle += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        return not self.windows

    def window_at(self, time: int) -> Optional[Window]:
        """The absolute window containing ``time``, if any."""
        for window in self.windows_from(time):
            if window.contains(time):
                return window
            if window.start > time:
                return None
        return None

    def first_start_at_or_after(self, time: int) -> Window:
        """First window whose start is >= ``time``."""
        for window in self.windows_from(time):
            if window.start >= time:
                return window
        raise LookupError("timeline has no windows")

    def first_start_after(self, time: int) -> Window:
        """First window whose start is strictly after ``time``."""
        return self.first_start_at_or_after(time + 1)

    # ------------------------------------------------------------------
    # completion rules (see module docstring)
    # ------------------------------------------------------------------
    def _usable_windows(self, time: int,
                        min_duration: int) -> Iterator[Window]:
        """Windows from ``time``, bounded to one full extra period.

        A requirement no window of the period can satisfy will never be
        satisfiable later either (the timeline repeats), so scanning
        past one period of candidates means the demand is impossible —
        raise instead of looping forever.
        """
        scanned = 0
        limit = max(1, len(self.windows)) + 1
        for window in self.windows_from(time):
            yield window
            scanned += 1
            if scanned > limit:
                break
        raise LookupError(
            f"no window of the timeline can fit {min_duration} ticks")

    def completion_aligned_strict(self, time: int,
                                  min_duration: int = 1) -> int:
        """End of the first window starting strictly after ``time``
        with at least ``min_duration`` ticks (DL-data rule)."""
        for window in self._usable_windows(time + 1, min_duration):
            if window.start > time and window.duration >= min_duration:
                return window.end
        raise LookupError("timeline has no usable windows")

    def completion_aligned(self, time: int, min_duration: int = 1) -> int:
        """End of the first window starting at or after ``time`` with at
        least ``min_duration`` ticks (granted-UL-data rule)."""
        for window in self._usable_windows(time, min_duration):
            if window.start >= time and window.duration >= min_duration:
                return window.end
        raise LookupError("timeline has no usable windows")

    def completion_joining(self, time: int, min_duration: int = 1) -> int:
        """End of the first window with ``min_duration`` ticks remaining
        at or after ``time`` (grant-free rule: mid-window entry allowed)."""
        for window in self._usable_windows(time, min_duration):
            entry = max(time, window.start)
            if window.end - entry >= min_duration:
                return window.end
        raise LookupError("timeline has no usable windows")

    def earliest_entry_joining(self, time: int,
                               min_duration: int = 1) -> int:
        """Earliest instant >= ``time`` at which a transmission of
        ``min_duration`` ticks can *start* under the joining rule."""
        for window in self._usable_windows(time, min_duration):
            entry = max(time, window.start)
            if window.end - entry >= min_duration:
                return entry
        raise LookupError("timeline has no usable windows")

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def duty_cycle(self) -> float:
        """Fraction of the period covered by windows."""
        covered = sum(w.duration for w in self.windows)
        return covered / self.period_tc

    def boundaries(self) -> tuple[int, ...]:
        """All window starts and ends within one period, sorted."""
        points: set[int] = set()
        for window in self.windows:
            points.add(window.start)
            points.add(window.end)
        return tuple(sorted(points))

    def __repr__(self) -> str:
        spans = ", ".join(f"[{w.start},{w.end})" for w in self.windows)
        return f"OpportunityTimeline(period={self.period_tc}, {spans})"


class WindowIndex:
    """Flat integer view of a timeline for population-scale queries.

    The generator protocol of :meth:`OpportunityTimeline.windows_from`
    is exact but allocates a :class:`Window` per step — fine for one
    UE, ruinous for 100k.  This index exposes the same timeline as
    arrays plus a *global window number* ``k``: window ``k`` is base
    window ``k % n`` of cycle ``k // n``.  All queries are defined to
    agree exactly with the generator/scalar methods they shadow (pinned
    by ``tests/mac/test_opportunities.py``).
    """

    def __init__(self, timeline: "OpportunityTimeline"):
        if timeline.is_empty():
            raise ValueError("cannot index an empty timeline")
        self.period_tc = timeline.period_tc
        self.starts = tuple(w.start for w in timeline.windows)
        self.ends = tuple(w.end for w in timeline.windows)
        self.durations = tuple(w.duration for w in timeline.windows)
        self.n_windows = len(self.starts)
        self._ends_arr = np.asarray(self.ends, dtype=np.int64)
        self._starts_arr = np.asarray(self.starts, dtype=np.int64)

    def bounds(self, k: int) -> tuple[int, int]:
        """``(start, end)`` of global window ``k`` in absolute Tc."""
        cycle, base = divmod(k, self.n_windows)
        offset = cycle * self.period_tc
        return self.starts[base] + offset, self.ends[base] + offset

    def duration(self, k: int) -> int:
        return self.durations[k % self.n_windows]

    def first_ending_after(self, time: int) -> int:
        """Global number of the first window with ``end > time`` — the
        window :meth:`OpportunityTimeline.windows_from` yields first."""
        if time < 0:
            time = 0
        cycle, rem = divmod(time, self.period_tc)
        base = bisect.bisect_right(self.ends, rem)
        if base == self.n_windows:
            cycle += 1
            base = 0
        return cycle * self.n_windows + base

    def earliest_entries_joining(self, times: np.ndarray,
                                 min_duration: int = 1) -> np.ndarray:
        """Vectorized :meth:`OpportunityTimeline.earliest_entry_joining`.

        One call answers the joining-rule entry instant for a whole
        population of candidate times; elementwise equal to the scalar
        method.  Raises :class:`LookupError` when no window of the
        period fits ``min_duration`` (the scalar method's bounded-scan
        rule: a demand the period cannot satisfy never becomes
        satisfiable).
        """
        fits = [i for i, d in enumerate(self.durations)
                if d >= min_duration]
        if not fits:
            raise LookupError(
                f"no window of the timeline can fit {min_duration} ticks")
        times = np.asarray(times, dtype=np.int64)
        clipped = np.maximum(times, 0)
        cycle, rem = np.divmod(clipped, self.period_tc)
        base = np.searchsorted(self._ends_arr, rem, side="right")
        wrap = base == self.n_windows
        cycle = cycle + wrap
        base = np.where(wrap, 0, base)
        offset = cycle * self.period_tc
        start = self._starts_arr[base] + offset
        end = self._ends_arr[base] + offset
        entry = np.maximum(clipped, start)
        ok = (end - entry) >= min_duration
        if bool(np.all(ok)):
            return entry
        # First candidate too full: the next fitting window is entered
        # at its start (every later window starts after `time`).
        fit_next = np.asarray(
            [min((j for j in fits if j > i),
                 default=fits[0] + self.n_windows)
             for i in range(self.n_windows)], dtype=np.int64)
        k = cycle * self.n_windows + base
        k_next = (k - base) + fit_next[base]
        cyc2, base2 = np.divmod(k_next, self.n_windows)
        start2 = self._starts_arr[base2] + cyc2 * self.period_tc
        return np.where(ok, entry, start2)


def first_joining_window(index: WindowIndex, ready: int, min_tx: int,
                         wire: int, capacities: Sequence[int],
                         used: Callable[[int], int]
                         ) -> tuple[int, int, int]:
    """Configured-grant window a grant-free packet joins:
    ``(k, start, end)`` of global window ``k``.

    The joining rule of the analytical model, applied to one UE's
    pre-allocated capacity: scanning from the first window ending after
    ``ready``, a window is usable when at least ``min_tx`` ticks remain
    after ``max(ready, start)`` and its capacity (``capacities`` per
    base window, the same in every period) has room for ``wire`` more
    bytes beyond ``used(start)`` — the bytes the UE has already planned
    there, 0 when it has planned nothing.

    Both engines plan through this function.  The scan is bounded: once
    a full period of *empty* windows has been rejected, it raises
    :class:`LookupError` if no window of the period could hold ``wire``
    bytes even whole and empty (no later cycle can either).  Otherwise a
    plan-free window that fits lies ahead — the UE's open plans are
    finite — and the scan goes on to it.
    """
    n = index.n_windows
    period = index.period_tc
    starts = index.starts
    ends = index.ends
    k = index.first_ending_after(ready)
    empty = 0
    while True:
        cycle, base = divmod(k, n)
        offset = cycle * period
        start = starts[base] + offset
        end = ends[base] + offset
        if end - (ready if ready > start else start) >= min_tx:
            taken = used(start)
            if taken + wire <= capacities[base]:
                return k, start, end
            if taken:
                k += 1
                continue
        empty += 1
        if empty == n + 1 and not any(
                duration >= min_tx and capacity >= wire
                for duration, capacity in zip(index.durations,
                                              capacities)):
            raise LookupError("no usable configured-grant window found")
        k += 1


class PeriodicInstants:
    """Periodic set of instants (control/scheduling occasions)."""

    def __init__(self, period_tc: int, instants: Iterable[int]):
        if period_tc <= 0:
            raise ValueError(f"period must be positive, got {period_tc}")
        self.period_tc = int(period_tc)
        self.instants = tuple(sorted(set(int(i) for i in instants)))
        for instant in self.instants:
            if not 0 <= instant < period_tc:
                raise ValueError(
                    f"instant {instant} outside [0, {period_tc})")

    def next_at_or_after(self, time: int) -> int:
        """First instant >= ``time`` (absolute)."""
        if not self.instants:
            raise LookupError("no instants configured")
        if time < 0:
            time = 0
        cycle, offset = divmod(time, self.period_tc)
        for instant in self.instants:
            if instant >= offset:
                return cycle * self.period_tc + instant
        return (cycle + 1) * self.period_tc + self.instants[0]

    def next_after(self, time: int) -> int:
        """First instant strictly after ``time``."""
        return self.next_at_or_after(time + 1)
