"""Timing harness for `posefuse bench`: per-step tracker latency and the
per-frame baseline's cost on synthetic ceiling-grid scenes, both under the
default config."""

from __future__ import annotations

import time
from dataclasses import dataclass, fields

import numpy as np

from .affinity import TrackerConfig
from .geometry import build_fundamental_table
from .simulator import ScenarioSpec, baseline_alg_s1, generate, synchronized_groups
from .tracker import CrossViewTracker


@dataclass(frozen=True)
class BenchRow:
    variant: str
    cameras: int
    people: int
    steps: int
    frames: float
    elapsed_s: float
    per_frame_ms: float
    fps: float
    p50_ms: float
    p90_ms: float
    p99_ms: float


BENCH_HEADER = ",".join(f.name for f in fields(BenchRow))


def bench_csv_line(r: BenchRow) -> str:
    return (f"{r.variant},{r.cameras},{r.people},{r.steps},{r.frames:.2f},"
            f"{r.elapsed_s:.4f},{r.per_frame_ms:.4f},{r.fps:.2f},"
            f"{r.p50_ms:.4f},{r.p90_ms:.4f},{r.p99_ms:.4f}")


def bench_scene(n_cameras: int, n_people: int, duration: float, seed: int = 0):
    """Ceiling-grid rig, default motion; input preloaded for timing runs."""
    spec = ScenarioSpec(n_people=n_people, n_cameras=n_cameras, rig="grid",
                        duration=duration, seed=seed)
    return generate(spec)


def _timed(variant: str, call, items, n_cam: int, n_people: int,
           n_frames: float) -> BenchRow:
    """Times each call(item) alone for the percentiles, and the whole loop."""
    times = []
    t0 = time.perf_counter()
    for item in items:
        s0 = time.perf_counter()
        call(item)
        times.append(time.perf_counter() - s0)
    elapsed = time.perf_counter() - t0
    p50, p90, p99 = (np.percentile(np.array(times) * 1e3, [50, 90, 99]).tolist()
                     if times else (0.0, 0.0, 0.0))
    return BenchRow(variant, n_cam, n_people, len(items), n_frames, elapsed,
                    1e3 * elapsed / n_frames if n_frames else 0.0,
                    n_frames / elapsed if elapsed > 0 else 0.0, p50, p90, p99)


def bench_tracker(cams, frames, n_people: int) -> BenchRow:
    """Per-step latency over a preloaded stream; one frame = every camera once."""
    return _timed("tracker", CrossViewTracker(cams).step, frames, len(cams),
                  n_people, len(frames) / len(cams))


def bench_baseline(cams, frames, n_people: int) -> BenchRow:
    """Times the per-frame brute-force clustering over synchronized groups."""
    cfg = TrackerConfig()
    groups = synchronized_groups(frames)
    ftable = build_fundamental_table(cams)
    return _timed("baseline", lambda g: baseline_alg_s1(g, cams, cfg, ftable),
                  groups, len(cams), n_people, float(len(groups)))
