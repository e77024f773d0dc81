"""Synthetic multi-camera pose streams with exact ground truth.

People are rigid 14-joint skeletons on continuous waypoint walks with
sinusoidal limb swing; bone lengths are constant by construction. Cameras
are pinhole rigs with per-camera frame rates and phase offsets, so streams
are unsynchronized by default.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field, fields

import numpy as np

from .affinity import TrackerConfig, _is_finite, _is_int, epipolar_affinity_matrix
from .geometry import CameraView, build_fundamental_table, project_points
from .tracker import Detection, FrameBatch, cluster_pool, stack_detections, triangulate

JOINT_NAMES = ["head", "neck", "lsho", "rsho", "lelb", "relb", "lwri", "rwri",
               "lhip", "rhip", "lknee", "rknee", "lank", "rank"]
N_JOINTS = len(JOINT_NAMES)

# meters; hip/shoulder values are half-widths from the body axis
DEFAULT_BONES = {
    "head": 0.25, "torso": 0.55, "shoulder": 0.20, "hip": 0.12,
    "upper_arm": 0.30, "lower_arm": 0.28, "upper_leg": 0.45, "lower_leg": 0.45,
}
ROOT_HEIGHT = 0.95
TIME_TOL = 1e-6  # seconds between a timestamp and the truth frame it names


class InvalidSpec(ValueError):
    """Scenario parameters are out of range or inconsistent."""


def _is_point(v) -> bool:
    return isinstance(v, (tuple, list)) and len(v) == 2 and all(map(_is_finite, v))


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to generate one deterministic scene."""

    n_people: int = 2
    duration: float = 10.0
    seed: int = 0
    rig: str = "ring"
    n_cameras: int = 4
    rig_radius: float = 9.0
    rig_height: float = 3.5
    area: tuple[float, float] = (6.0, 6.0)
    grid_height: float = 4.0
    fps: float = 25.0
    phase_offsets: tuple[float, ...] | None = None
    timestamp_jitter: float = 0.0
    noise_sigma: float = 0.0
    dropout: float = 0.0
    image_size: tuple[int, int] = (1280, 720)
    focal: float = 550.0
    root_speed: float = 0.4
    swing_amplitude: float = 0.3
    swing_frequency: float = 0.7
    walk_bounds: tuple[float, float] = (2.2, 2.2)
    waypoints: tuple[tuple[tuple[float, float], ...], ...] | None = None
    bone_lengths: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_BONES))

    def __post_init__(self):
        # types first: the range checks below compare, and NaN passes them
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type == "int" and not _is_int(v):
                raise InvalidSpec(f"{f.name} must be an integer, got {v!r}")
            if f.type == "float" and not _is_finite(v):
                raise InvalidSpec(f"{f.name} must be a finite number, got {v!r}")
        for name in ("area", "walk_bounds"):
            if not _is_point(getattr(self, name)):
                raise InvalidSpec(f"{name} must be two finite numbers, "
                                  f"got {getattr(self, name)!r}")
        if self.phase_offsets is not None and not (
                isinstance(self.phase_offsets, (tuple, list))
                and all(map(_is_finite, self.phase_offsets))):
            raise InvalidSpec(f"phase_offsets must be finite numbers, "
                              f"got {self.phase_offsets!r}")
        size = self.image_size
        if not (isinstance(size, (tuple, list)) and len(size) == 2
                and all(_is_int(v) and v > 0 for v in size)):
            raise InvalidSpec(f"image_size must be two positive integers, got {size!r}")
        if self.waypoints is not None and not (
                isinstance(self.waypoints, (tuple, list))
                and all(isinstance(path, (tuple, list)) and path
                        and all(map(_is_point, path)) for path in self.waypoints)):
            raise InvalidSpec("waypoints must be lists of [x, y] finite numbers")
        b = self.bone_lengths
        if not (isinstance(b, dict) and all(_is_finite(b.get(k)) for k in DEFAULT_BONES)):
            raise InvalidSpec(f"bone_lengths must give a finite number for each "
                              f"of {sorted(DEFAULT_BONES)}")
        if self.seed < 0:
            raise InvalidSpec("seed must be nonnegative")
        if self.n_people < 0:
            raise InvalidSpec("n_people must be nonnegative")
        if self.duration <= 0:
            raise InvalidSpec("duration must be positive")
        if self.rig not in ("ring", "grid"):
            raise InvalidSpec(f"unknown rig layout {self.rig!r}")
        if self.n_cameras < 1:
            raise InvalidSpec("need at least one camera")
        if self.fps <= 0:
            raise InvalidSpec("fps must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise InvalidSpec("dropout must be in [0, 1)")
        if self.noise_sigma < 0:
            raise InvalidSpec("noise_sigma must be nonnegative")
        if self.timestamp_jitter < 0 or self.timestamp_jitter >= 0.5 / self.fps:
            if self.timestamp_jitter != 0.0:
                raise InvalidSpec("timestamp_jitter must stay under half a frame period")
        if self.phase_offsets is not None and len(self.phase_offsets) != self.n_cameras:
            raise InvalidSpec("phase_offsets must have one entry per camera")
        if self.waypoints is not None and len(self.waypoints) != self.n_people:
            raise InvalidSpec("waypoints must have one path per person")
        if self.root_speed < 0:
            raise InvalidSpec("root_speed must be nonnegative")

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioSpec":
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise InvalidSpec(f"unknown scenario keys: {sorted(unknown)}")
        d = dict(d)
        # anything but lists is left for __post_init__ to reject
        for key in ("area", "image_size", "walk_bounds", "phase_offsets"):
            if isinstance(d.get(key), list):
                d[key] = tuple(d[key])
        paths = d.get("waypoints")
        if isinstance(paths, list) and all(isinstance(path, list) and
                                           all(isinstance(p, list) for p in path)
                                           for path in paths):
            d["waypoints"] = tuple(tuple(tuple(p) for p in path) for path in paths)
        return cls(**d)


@dataclass
class GroundTruth:
    """True poses at every frame time plus the per-detection identity map.

    pose_frames rows are (camera_id, timestamp, {person_id: (K, 3)}).
    det_person and noise are keyed by (camera_id, timestamp, index).
    """

    pose_frames: list[tuple[str, float, dict[int, np.ndarray]]]
    det_person: dict[tuple[str, float, int], int]
    noise: dict[tuple[str, float, int], np.ndarray] = field(default_factory=dict)

    def poses_at(self, t: float) -> dict[int, np.ndarray]:
        lo = bisect_left(self.pose_frames, t - TIME_TOL, key=lambda row: row[1])
        if lo < len(self.pose_frames) and abs(self.pose_frames[lo][1] - t) <= TIME_TOL:
            return self.pose_frames[lo][2]
        raise KeyError(f"no ground-truth frame at t={t}")


class _PersonMotion:
    """Continuous root trajectory plus phase-locked sinusoidal limb swing."""

    def __init__(self, spec: ScenarioSpec, rng: np.random.Generator, person: int):
        b = spec.bone_lengths
        self.b = b
        if spec.waypoints is not None:
            pts = np.array(spec.waypoints[person], dtype=float)
        else:
            bx, by = spec.walk_bounds
            n_wp = max(3, int(np.ceil(spec.duration * spec.root_speed / 1.5)) + 2)
            pts = np.column_stack([rng.uniform(-bx, bx, n_wp), rng.uniform(-by, by, n_wp)])
        self.azimuth = rng.uniform(0, 2 * np.pi)
        self.phase = rng.uniform(0, 2 * np.pi)
        self.freq = spec.swing_frequency
        self.amp = spec.swing_amplitude
        # piecewise-linear schedule: cumulative arrival time per waypoint
        if spec.root_speed > 0 and len(pts) > 1:
            seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
            self.times = np.concatenate([[0.0], np.cumsum(seg / spec.root_speed)])
        else:
            pts = pts[:1]
            self.times = np.array([0.0])
        self.pts = pts
        lat = np.array([np.cos(self.azimuth), np.sin(self.azimuth), 0.0])
        fwd = np.array([-np.sin(self.azimuth), np.cos(self.azimuth), 0.0])
        self.lat, self.fwd = lat, fwd

    def root_xy(self, t: float) -> np.ndarray:
        pts, times = self.pts, self.times
        if len(pts) == 1 or t <= 0:
            return pts[0]
        if t >= times[-1]:
            return pts[-1]
        i = int(np.searchsorted(times, t, side="right")) - 1
        f = (t - times[i]) / (times[i + 1] - times[i])
        return pts[i] * (1 - f) + pts[i + 1] * f

    def pose(self, t: float) -> np.ndarray:
        b, lat, fwd = self.b, self.lat, self.fwd
        up = np.array([0.0, 0.0, 1.0])
        xy = self.root_xy(t)
        root = np.array([xy[0], xy[1], ROOT_HEIGHT])
        neck = root + b["torso"] * up
        out = np.empty((N_JOINTS, 3))
        out[0] = neck + b["head"] * up
        out[1] = neck
        out[2] = neck + b["shoulder"] * lat
        out[3] = neck - b["shoulder"] * lat
        out[8] = root + b["hip"] * lat
        out[9] = root - b["hip"] * lat
        w = 2 * np.pi * self.freq

        def swing(angle):
            return np.sin(angle) * fwd - np.cos(angle) * up

        aL = self.amp * np.sin(w * t + self.phase)
        aR = self.amp * np.sin(w * t + self.phase + np.pi)
        a2L = 1.5 * self.amp * np.sin(w * t + self.phase - 0.9)
        a2R = 1.5 * self.amp * np.sin(w * t + self.phase + np.pi - 0.9)
        out[4] = out[2] + b["upper_arm"] * swing(aL)
        out[5] = out[3] + b["upper_arm"] * swing(aR)
        out[6] = out[4] + b["lower_arm"] * swing(a2L)
        out[7] = out[5] + b["lower_arm"] * swing(a2R)
        gL = 0.7 * self.amp * np.sin(w * t + self.phase + np.pi)
        gR = 0.7 * self.amp * np.sin(w * t + self.phase)
        g2L = 0.9 * self.amp * np.sin(w * t + self.phase + np.pi - 0.7)
        g2R = 0.9 * self.amp * np.sin(w * t + self.phase - 0.7)
        out[10] = out[8] + b["upper_leg"] * swing(gL)
        out[11] = out[9] + b["upper_leg"] * swing(gR)
        out[12] = out[10] + b["lower_leg"] * swing(g2L)
        out[13] = out[11] + b["lower_leg"] * swing(g2R)
        return out


def _look_at(center, target):
    center = np.asarray(center, float)
    fwd = np.asarray(target, float) - center
    fwd = fwd / np.linalg.norm(fwd)
    right = np.cross(fwd, np.array([0.0, 0.0, 1.0]))
    if np.linalg.norm(right) < 1e-6:
        right = np.cross(fwd, np.array([0.0, 1.0, 0.0]))
    right = right / np.linalg.norm(right)
    down = np.cross(fwd, right)
    return np.stack([right, down, fwd])


def _camera_places(spec: ScenarioSpec):
    """Each camera's center (3,) and look-at target, in camera order: evenly
    around the ring, or row by row over the ceiling grid."""
    n = spec.n_cameras
    if spec.rig == "ring":
        for i in range(n):
            th = 2 * np.pi * i / n
            yield (np.array([spec.rig_radius * np.cos(th), spec.rig_radius * np.sin(th),
                             spec.rig_height]), (0.0, 0.0, 1.0))
        return
    cols = int(np.ceil(np.sqrt(n)))
    rows = int(np.ceil(n / cols))
    ax, ay = spec.area
    for i in range(n):
        x = (i % cols + 0.5) / cols * ax - ax / 2.0
        y = (i // cols + 0.5) / rows * ay - ay / 2.0
        yield np.array([x, y, spec.grid_height]), (x * 0.25, y * 0.25, 1.0)


def make_rig(spec: ScenarioSpec) -> list[CameraView]:
    """Pinhole cameras on a ring or a ceiling grid, all looking into the scene."""
    W, H = spec.image_size
    Km = np.array([[spec.focal, 0.0, W / 2.0],
                   [0.0, spec.focal, H / 2.0],
                   [0.0, 0.0, 1.0]])
    cams = []
    for i, (c, target) in enumerate(_camera_places(spec)):
        R = _look_at(c, target)
        P = Km @ np.hstack([R, -R @ c[:, None]])
        cams.append(CameraView.from_projection(f"cam{i:02d}", P, spec.image_size))
    return cams


def _frame_times(spec: ScenarioSpec, cam_index: int, rng: np.random.Generator) -> np.ndarray:
    period = 1.0 / spec.fps
    if spec.phase_offsets is not None:
        phase = spec.phase_offsets[cam_index]
    else:
        phase = cam_index * period / max(spec.n_cameras, 1)
    n = int(np.floor((spec.duration - phase) / period)) + 1
    times = phase + period * np.arange(n)
    if spec.timestamp_jitter > 0:
        times = times + rng.uniform(-spec.timestamp_jitter, spec.timestamp_jitter, n)
        times.sort()
    # quantize to ns so in-memory values match the serialized form exactly
    return np.round(times[(times >= 0) & (times <= spec.duration)], 9)


def generate(spec: ScenarioSpec) -> tuple[list[CameraView], list[FrameBatch], GroundTruth]:
    """Build the rig, the chronologically merged stream, and ground truth."""
    rng = np.random.default_rng(spec.seed)
    cams = make_rig(spec)
    people = [_PersonMotion(spec, rng, p) for p in range(spec.n_people)]

    schedule = []
    for i, cam in enumerate(cams):
        for t in _frame_times(spec, i, rng):
            schedule.append((float(t), i))
    schedule.sort()

    W, H = spec.image_size
    frames: list[FrameBatch] = []
    truth = GroundTruth(pose_frames=[], det_person={}, noise={})
    for t, ci in schedule:
        cam = cams[ci]
        poses = {p: person.pose(t) for p, person in enumerate(people)}
        truth.pose_frames.append((cam.id, t, poses))
        dets: list[Detection] = []
        for p in range(spec.n_people):
            uv, depth = project_points(cam, poses[p])
            vis = (depth > 1e-6) & (uv[:, 0] >= 0) & (uv[:, 0] < W) \
                & (uv[:, 1] >= 0) & (uv[:, 1] < H)
            noise = rng.normal(0.0, spec.noise_sigma, (N_JOINTS, 2)) \
                if spec.noise_sigma > 0 else np.zeros((N_JOINTS, 2))
            if spec.dropout > 0:
                vis &= rng.uniform(size=N_JOINTS) >= spec.dropout
            if not vis.any():
                continue
            joints = np.where(vis[:, None], uv + noise, np.nan)
            conf = np.where(vis, 1.0, 0.0)
            idx = len(dets)
            dets.append(Detection(cam.id, t, joints, conf, index=idx))
            truth.det_person[(cam.id, t, idx)] = p
            truth.noise[(cam.id, t, idx)] = np.where(vis[:, None], noise, np.nan)
        frames.append(FrameBatch(cam.id, t, dets))
    return cams, frames, truth


def synchronized_groups(frames: list[FrameBatch]) -> list[list[FrameBatch]]:
    """Group the stream by per-camera frame index, truncated to the shortest camera."""
    per_cam: dict[str, list[FrameBatch]] = {}
    for f in frames:
        per_cam.setdefault(f.camera_id, []).append(f)
    if not per_cam:
        return []
    n = min(len(v) for v in per_cam.values())
    order = sorted(per_cam)
    return [[per_cam[cid][i] for cid in order] for i in range(n)]


def plain_pose(P: np.ndarray, xy: np.ndarray, vis: np.ndarray) -> np.ndarray:
    """Plain DLT (K, 3) of a skeleton's joints from n views, P (n, 3, 4),
    pixels xy (n, K, 2) and usable-joint mask vis (n, K): triangulate, with no
    previous point, on C'C, where C stacks the rows x * p3 - p1 and
    y * p3 - p2 of each view that sees the joint (p1..p3 being the rows of
    its P) and zero rows for the others. NaN for a joint seen by fewer than
    two views or at infinity."""
    n, K = vis.shape
    X = np.full((K, 3), np.nan)
    ks = (np.add.reduce(vis, axis=0) >= 2).nonzero()[0]
    pts = xy[:, ks].transpose(1, 0, 2)  # (k, n, 2)
    rows = pts[..., None] * P[:, 2][:, None] - P[:, :2]  # (k, n, 2, 4)
    if n > 2:  # with two views, each joint solved is seen by both
        rows = np.where(vis[:, ks].T[:, :, None, None], rows, 0.0)
    C = rows.reshape(ks.size, 2 * n, 4)
    X[ks] = triangulate(C.transpose(0, 2, 1) @ C, X[ks])
    return X


def baseline_alg_s1(group: list[FrameBatch], cams: list[CameraView],
                    cfg: TrackerConfig, ftable: np.ndarray | None = None):
    """Per-frame brute-force competitor: cluster_pool over all detections of
    one synchronized frame group, the association the tracker runs only on
    its unmatched pool, and plain_pose for each group. Stateless across
    frames: the group is stacked and scored anew.

    Returns (timestamp, poses, memberships): poses is {cluster_idx: (K, 3)}
    with NaN rows for unplaced joints, memberships maps cluster_idx to the
    member detections; a group with no placed joint is left out.
    """
    if ftable is None:
        ftable = build_fundamental_table(cams)
    dets = [d for f in group for d in f.detections]
    stamp = max(f.timestamp for f in group)
    poses, members = {}, {}
    index = {c.id: i for i, c in enumerate(cams)}
    cam = np.array([index[d.camera_id] for d in dets])
    if len(dets) >= cfg.min_views_init and cam.min() < cam.max():
        xy, _, vis = stack_detections(dets, cfg.min_joint_confidence)
        a = epipolar_affinity_matrix(xy, vis, cam, ftable, cfg)
        P = np.stack([c.P for c in cams])[cam]
        for c in cluster_pool(a, cfg):
            X = plain_pose(P[c], xy[c], vis[c])
            if not np.isnan(X[:, 0]).all():
                members[len(poses)] = [dets[j] for j in c]
                poses[len(poses)] = X
    return stamp, poses, members
