"""Timing harness for `posefuse bench`: per-step tracker latency and the
per-frame baseline's cost on synthetic ceiling-grid scenes."""

from __future__ import annotations

import time
from dataclasses import dataclass

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


BENCH_HEADER = ("variant,cameras,people,steps,frames,elapsed_s,per_frame_ms,"
                "fps,p50_ms,p90_ms,p99_ms")


def bench_csv_line(r: BenchRow) -> str:
    return (f"{r.variant},{r.cameras},{r.people},{r.steps},{r.frames:.2f},"
            f"{r.elapsed_s:.4f},{r.per_frame_ms:.4f},{r.fps:.2f},"
            f"{r.p50_ms:.4f},{r.p90_ms:.4f},{r.p99_ms:.4f}")


def bench_scene(n_cameras: int, n_people: int, duration: float, seed: int = 0):
    """Ceiling-grid rig, default motion; input preloaded for timing runs."""
    spec = ScenarioSpec(n_people=n_people, n_cameras=n_cameras, rig="grid",
                        duration=duration, seed=seed)
    return generate(spec)


def _percentiles(times_s: list[float]) -> tuple[float, float, float]:
    p = np.percentile(np.array(times_s) * 1e3, [50, 90, 99])
    return float(p[0]), float(p[1]), float(p[2])


def bench_tracker(cams, frames, n_people: int,
                  cfg: TrackerConfig | None = None) -> BenchRow:
    """Per-step latency over a preloaded stream; one frame = every camera once."""
    tracker = CrossViewTracker(cams, cfg)
    times = []
    t0 = time.perf_counter()
    for f in frames:
        s0 = time.perf_counter()
        tracker.step(f)
        times.append(time.perf_counter() - s0)
    elapsed = time.perf_counter() - t0
    n_cam = len(cams)
    n_frames = len(frames) / n_cam
    p50, p90, p99 = _percentiles(times)
    return BenchRow("tracker", n_cam, n_people, len(frames), n_frames, elapsed,
                    1e3 * elapsed / n_frames if n_frames else 0.0,
                    n_frames / elapsed if elapsed > 0 else 0.0, p50, p90, p99)


def bench_baseline(cams, frames, n_people: int,
                   cfg: TrackerConfig | None = None) -> BenchRow:
    """Times the per-frame brute-force clustering over synchronized groups."""
    cfg = cfg or TrackerConfig()
    groups = synchronized_groups(frames)
    ftable = build_fundamental_table(cams)
    times = []
    t0 = time.perf_counter()
    for g in groups:
        s0 = time.perf_counter()
        baseline_alg_s1(g, cams, cfg, ftable)
        times.append(time.perf_counter() - s0)
    elapsed = time.perf_counter() - t0
    p50, p90, p99 = _percentiles(times) if times else (0.0, 0.0, 0.0)
    n_frames = float(len(groups))
    return BenchRow("baseline", len(cams), n_people, len(groups), n_frames,
                    elapsed, 1e3 * elapsed / n_frames if n_frames else 0.0,
                    n_frames / elapsed if elapsed > 0 else 0.0, p50, p90, p99)
