"""In-memory spans around posefuse calls, recorded from outside the package.

A `Tracer` wraps callables so that each call appends one `Span` (name,
start, end, parent, frame id). `instrument_tracker` rebinds the names that
`posefuse.tracker` looks up at call time, so spans nest inside
`tracker.step` without any change to the package. Spans stay in memory
until `write_spans` is called at the end of a run.
"""

from __future__ import annotations

import contextlib
import json
import time

from posefuse import tracker as tracker_mod

# name that posefuse.tracker calls -> layer span name
TRACKER_CALLS = {
    "hungarian_max": "assignment.hungarian",
    "epipolar_affinity_matrix": "affinity.epipolar",
    "partition_cycle_consistent": "assignment.partition",
    "triangulate": "reconstruction.triangulate",
    "build_fundamental_table": "geometry.fundamental_table",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "frame", "work", "failed")

    def __init__(self, name: str, start: float, parent: int, frame: int, work: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.frame = frame
        self.work = work
        self.failed = False

    @property
    def duration(self) -> float:
        return self.end - self.start


def _items(args) -> int:
    """Work measure of a call: the size of its first argument, if it has one."""
    try:
        return len(args[0])
    except (IndexError, TypeError):
        return 0


class Tracer:
    """Collects spans from one thread. A span opened with no open parent is
    a root and starts a new frame id."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._frame = -1

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not stack:
                self._frame += 1
            idx = len(spans)
            span = Span(name, clock(), stack[-1] if stack else -1, self._frame,
                        _items(args))
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except Exception:
                span.failed = True
                raise
            finally:
                span.end = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced


@contextlib.contextmanager
def instrument_tracker(tracer: Tracer):
    """Route posefuse.tracker's calls into the other layers through `tracer`."""
    saved = {n: getattr(tracker_mod, n) for n in TRACKER_CALLS}
    try:
        for n, layer in TRACKER_CALLS.items():
            setattr(tracker_mod, n, tracer.wrap(layer, saved[n]))
        yield tracer
    finally:
        for n, fn in saved.items():
            setattr(tracker_mod, n, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


def write_spans(spans: list[Span], path: str) -> None:
    """One JSON object per span; times in seconds on the perf_counter clock."""
    with open(path, "w", encoding="utf-8") as f:
        for i, (s, own) in enumerate(zip(spans, self_times(spans))):
            f.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                "end": s.end, "self": own, "parent": s.parent,
                                "frame": s.frame, "work": s.work,
                                "failed": s.failed}) + "\n")
