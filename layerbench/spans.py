"""In-memory span recording and self-time accounting.

A span is a name, a start, an end and the index of its parent span
(``-1`` for a root).  The spans of one repetition share one trace id;
they stay in memory while the repetition runs and are written out
once it has ended, so recording costs no I/O inside a timed region.

Only the thread that created the recorder records spans: calls made
from helper threads (the dispatch heartbeat, the process pool's
management thread) would interleave with the main thread's nesting.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from pathlib import Path

__all__ = ["SpanRecorder", "coverage", "self_times", "union_length"]


class SpanRecorder:
    """Parallel-list store of the spans of one trace."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = [-1]
        self._owner = threading.get_ident()

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; -1 off-thread."""
        if threading.get_ident() != self._owner:
            return -1
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        """End the span ``open`` returned (a no-op for -1)."""
        if index < 0:
            return
        self.ends[index] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {self.names[index]!r} closed out of order "
                f"(innermost open span is {self.names[popped]!r})")

    def __len__(self) -> int:
        return len(self.names)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-name call count, total duration and self time.

        ``total_s`` counts a span only when its parent has another
        name, so a call that re-enters its own layer (a probe summary
        reading its own latencies) is not timed twice.
        """
        selfs = self_times(self.starts, self.ends, self.parents)
        names = self.names
        out: dict[str, dict[str, float]] = {}
        for name, start, end, parent, own in zip(
                names, self.starts, self.ends, self.parents, selfs):
            entry = out.setdefault(name, {"count": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            entry["count"] += 1
            if parent < 0 or names[parent] != name:
                entry["total_s"] += end - start
            entry["self_s"] += own
        return out

    def write(self, path: Path) -> None:
        """Dump every span to a compressed ``.npz`` (after timing).

        ``name`` indexes ``names``; ``parent`` indexes the span arrays.
        """
        import numpy as np

        table = sorted(set(self.names))
        code = {name: k for k, name in enumerate(table)}
        np.savez_compressed(
            path, trace_id=np.array(self.trace_id),
            names=np.array(table),
            name=np.array([code[n] for n in self.names], dtype=np.int32),
            start=np.array(self.starts, dtype=np.float64),
            end=np.array(self.ends, dtype=np.float64),
            parent=np.array(self.parents, dtype=np.int64))


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_times(starts: list[float], ends: list[float],
               parents: list[int]) -> list[float]:
    """Each span's duration minus what its child spans cover.

    Children are clipped to their parent's interval and their union is
    taken, so overlapping or overhanging children are never counted
    twice and self time is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append((starts[index], ends[index]))
    selfs = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        kids = children.get(index)
        covered = 0.0
        if kids:
            clipped = [(max(s, start), min(e, end)) for s, e in kids
                       if min(e, end) > max(s, start)]
            covered = union_length(clipped)
        selfs.append(max(0.0, (end - start) - covered))
    return selfs


def coverage(recorder: SpanRecorder, root: int) -> float:
    """Share of span ``root`` covered by the other spans inside it."""
    start, end = recorder.starts[root], recorder.ends[root]
    if end <= start:
        return 0.0
    clipped = [(max(s, start), min(e, end))
               for k, (s, e) in enumerate(zip(recorder.starts,
                                              recorder.ends))
               if k != root and min(e, end) > max(s, start)]
    return union_length(clipped) / (end - start)
