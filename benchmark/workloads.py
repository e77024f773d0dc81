"""Benchmark workloads: seeded synthetic scenes written as posefuse input files.

Every workload is a `posefuse.simulator.ScenarioSpec` plus an optional rate of
injected false-positive skeletons. `prepare` writes the three files a
`posefuse track` / `posefuse evaluate` run reads (calibration, detections,
truth); the same seed always gives the same bytes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from posefuse import io_cli
from posefuse.simulator import ScenarioSpec, generate
from posefuse.tracker import Detection, FrameBatch

# a ghost keeps only the joints that land inside the image; with fewer than
# this many left it is dropped (the tracker's epipolar test needs 3 shared)
MIN_GHOST_JOINTS = 3


@dataclass(frozen=True)
class Workload:
    spec: ScenarioSpec
    ghost_rate: float = 0.0  # Poisson mean of ghost detections per camera frame


# Every scene is 1201 camera frames long, so a frame-time p99 has 12 frames
# beyond it, and one pass over the stream takes about 2-6 s on a 2-vCPU x86
# VM: long enough that cold start is a small share of frames, short enough
# that a run repeats the pass at least three times. clutter8's costly frames
# come from random ghost coincidences; 6 s of them keep its tail latency and
# IDF1 close from seed to seed. Why each workload exists is in BENCHMARK.json.
WORKLOADS = {
    # the reference scene: steady-state matching, pool initialization idle
    "grid12": Workload(ScenarioSpec(n_people=4, n_cameras=12, rig="grid",
                                    fps=25.0, duration=4.0)),
    # per-step cost as cameras grow, and the largest set-up
    "grid32": Workload(ScenarioSpec(n_people=5, n_cameras=32, rig="grid",
                                    fps=25.0, duration=1.5)),
    # initialization on most steps: pool, epipolar matrix, partition, build
    "clutter8": Workload(ScenarioSpec(n_people=3, n_cameras=8, rig="ring",
                                      fps=25.0, duration=6.0, noise_sigma=2.0,
                                      dropout=0.1),
                         ghost_rate=0.5),
}


def add_ghosts(frames: list[FrameBatch], image_size: tuple[int, int],
               rate: float, seed: int) -> list[FrameBatch]:
    """Append a Poisson(rate) count of false-positive skeletons to each frame.

    Each ghost copies a real detection of the same frame and shifts it by a
    uniform random offset of up to half the image in each axis. Ghosts get
    the next free indices, so real detections keep theirs and the truth's
    identity map stays valid for them. Same inputs and seed, same output.
    """
    rng = np.random.default_rng([seed, 0x6705])
    W, H = image_size
    half = np.array([W / 2.0, H / 2.0])
    out = []
    for f in frames:
        n = int(rng.poisson(rate))
        dets = list(f.detections)
        for _ in range(n if f.detections else 0):
            src = f.detections[int(rng.integers(len(f.detections)))]
            xy = src.joints + rng.uniform(-half, half)
            with np.errstate(invalid="ignore"):
                inside = np.isfinite(xy).all(axis=1) & (xy[:, 0] >= 0) \
                    & (xy[:, 0] < W) & (xy[:, 1] >= 0) & (xy[:, 1] < H)
            if inside.sum() < MIN_GHOST_JOINTS:
                continue
            dets.append(Detection(f.camera_id, f.timestamp,
                                  np.where(inside[:, None], xy, np.nan),
                                  np.where(inside, src.confidences, 0.0),
                                  index=len(dets)))
        out.append(FrameBatch(f.camera_id, f.timestamp, dets))
    return out


@dataclass(frozen=True)
class Files:
    calib: str
    detections: str
    truth: str


def files_in(directory: str) -> Files:
    return Files(os.path.join(directory, "calibration.jsonl"),
                 os.path.join(directory, "detections.jsonl"),
                 os.path.join(directory, "truth.jsonl"))


def prepare(name: str, seed: int, directory: str,
            duration: float | None = None) -> Files:
    """Generate workload `name` for `seed` and write its input files.

    `duration` overrides the scene length (used by the smoke tests).
    """
    w = WORKLOADS[name]
    spec = replace(w.spec, seed=seed,
                   duration=w.spec.duration if duration is None else duration)
    cams, frames, truth = generate(spec)
    if w.ghost_rate > 0:
        frames = add_ghosts(frames, spec.image_size, w.ghost_rate, seed)
    os.makedirs(directory, exist_ok=True)
    files = files_in(directory)
    io_cli.write_calibration(cams, files.calib)
    io_cli.write_detections(frames, files.detections)
    io_cli.write_truth(truth, files.truth)
    return files
