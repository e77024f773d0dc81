"""Independent brute-force and scalar oracles used by unit and acceptance tests.

These are the slow, obviously-correct references that the package's
vectorized paths are checked against: assignment and partition by
enumeration, per-joint triangulation, the per-pair target and epipolar
affinities, the per-joint velocity regression and a per-joint view of the
tracker's state, and the per-row wire format. Nothing here imports from the
package's solver paths; it takes only types, errors, constants and the
small geometry helpers from it.
"""

import math
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from posefuse.affinity import EPS_CLOCK, ChronologyViolation
from posefuse.geometry import CameraView, DegenerateLine, DegenerateProjection, \
    epipolar_line, hom, point_to_line_distance
from posefuse.io_cli import ParseError, _camera_id, _field, _loads, _parse_ts, fmt_ts
from posefuse.reconstruction import UnknownCamera
from posefuse.tracker import Detection, FrameBatch


def brute_force_assignment_total(a: np.ndarray) -> float:
    """Best total over all complete assignments of min(N, M) pairs.

    A permutation landing on -inf cells leaves those rows/columns unmatched.
    Candidates are ranked by fewest -inf cells first, then by the sum of the
    finite cells, because dropping a usable pair to dodge a finite negative
    score is not allowed (constant shifts must not change the matching).
    """
    a = np.asarray(a, dtype=float)
    if a.shape[0] > a.shape[1]:
        a = a.T
    n, m = a.shape
    rows = np.arange(n)
    best = None
    for perm in permutations(range(m), n):
        sel = a[rows, list(perm)]
        finite = np.isfinite(sel)
        cand = (int(finite.sum()), float(sel[finite].sum()))
        if best is None or cand > best:
            best = cand
    return best[1]


def all_partitions(n: int):
    """Every set partition of range(n) as a label tuple (restricted growth)."""
    labels = [0] * n

    def rec(i, max_lab):
        if i == n:
            yield tuple(labels)
            return
        for lab in range(max_lab + 2):
            labels[i] = lab
            yield from rec(i + 1, max(max_lab, lab))

    yield from rec(0, -1)


def bell_number(n: int) -> int:
    if n <= 0:
        return 1
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def partition_objective(labels, a: np.ndarray) -> float:
    """Sum of within-cluster affinities; -inf if a forbidden pair shares a cluster."""
    a = np.asarray(a, dtype=float)
    total = 0.0
    n = len(labels)
    for i in range(n):
        for j in range(i + 1, n):
            if labels[i] == labels[j]:
                if np.isneginf(a[i, j]):
                    return float("-inf")
                total += a[i, j]
    return total


def best_partition_total(a: np.ndarray) -> float:
    """Exhaustive maximum of partition_objective over all set partitions."""
    n = a.shape[0]
    best = float("-inf")
    for labels in all_partitions(n):
        obj = partition_objective(labels, a)
        if obj > best:
            best = obj
    return best


# ------------------------------------------------- scalar triangulation


class InsufficientViews(ValueError):
    """Fewer than two usable views, or all views share a center."""


class NearDegenerate(ValueError):
    """Solution is numerically at infinity; rays are (almost) parallel."""


@dataclass(frozen=True)
class JointObservationSet:
    """One joint's 2D evidence: at most one observation per camera.

    The reference time is the newest timestamp; weighting measures staleness
    against it.
    """

    cameras: tuple[str, ...]
    points: np.ndarray
    times: np.ndarray
    confidences: np.ndarray = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "cameras", tuple(self.cameras))
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float).reshape(-1, 2))
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float).reshape(-1))
        conf = self.confidences
        if conf is None:
            conf = np.ones(len(self.cameras))
        object.__setattr__(self, "confidences", np.asarray(conf, dtype=float).reshape(-1))
        n = len(self.cameras)
        if n == 0:
            raise ValueError("empty observation set")
        if len(set(self.cameras)) != n:
            raise ValueError("duplicate camera in observation set")
        if self.points.shape[0] != n or self.times.shape[0] != n or self.confidences.shape[0] != n:
            raise ValueError("cameras, points, times, confidences must align")

    @property
    def reference_time(self) -> float:
        return float(self.times.max())


@dataclass(frozen=True)
class TriangulationResult:
    point: np.ndarray
    residual_px: float
    n_views: int


def _views(obs: JointObservationSet, cams: dict[str, CameraView]) -> list[CameraView]:
    """The set's cameras in order; UnknownCamera for one the rig lacks."""
    views = []
    for cid in obs.cameras:
        cam = cams.get(cid)
        if cam is None:
            raise UnknownCamera(cid)
        views.append(cam)
    return views


def build_coefficients(obs: JointObservationSet, cams: dict[str, CameraView]) -> np.ndarray:
    """Stack the two homogeneous DLT rows per view into a (2n, 4) matrix.

    Row pair per view: x * p3 - p1 and y * p3 - p2, where p1..p3 are the
    rows of that camera's projection matrix.
    """
    P = np.array([cam.P for cam in _views(obs, cams)])
    rows = np.empty((2 * len(P), 4))
    rows[0::2] = obs.points[:, :1] * P[:, 2] - P[:, 0]
    rows[1::2] = obs.points[:, 1:] * P[:, 2] - P[:, 1]
    return rows


def row_weight(t_now: float, t_i: float, lambda_t: float, row_norm: float) -> float:
    """Staleness decay divided by the row's L2 norm."""
    if row_norm <= 0:
        raise ValueError("row_norm must be positive")
    return float(np.exp(-lambda_t * (t_now - t_i)) / row_norm)


def _solve_homogeneous(C: np.ndarray) -> np.ndarray:
    """Unit null-direction of C via eigen-decomposition of the 4x4 C^T C."""
    _, vecs = np.linalg.eigh(C.T @ C)
    return vecs[:, 0]


def _check_views(obs: JointObservationSet, cams: dict[str, CameraView]):
    if len(obs.cameras) < 2:
        raise InsufficientViews(f"{len(obs.cameras)} view(s); need at least 2")
    centers = np.array([cam.center for cam in _views(obs, cams)])
    spread = np.linalg.norm(centers - centers[0], axis=1).max()
    if spread < 1e-9:
        raise InsufficientViews("all views share a camera center")


def _finish(C: np.ndarray, obs: JointObservationSet, cams: dict[str, CameraView]) -> TriangulationResult:
    xt = _solve_homogeneous(C)
    if abs(xt[3]) < 1e-12:
        raise NearDegenerate("triangulated point is at infinity")
    X = xt[:3] / xt[3]
    w = np.array([cams[cid].P for cid in obs.cameras]) @ hom(X)  # (n, 3)
    if (np.abs(w[:, 2]) < 1e-12).any():
        res = float("inf")
    else:
        res = float(np.hypot(*(w[:, :2] / w[:, 2:] - obs.points).T).sum())
    return TriangulationResult(X, res / len(obs.cameras), len(obs.cameras))


def triangulate_joint(obs: JointObservationSet, cams: dict[str, CameraView]) -> TriangulationResult:
    """Plain DLT of one joint: minimizes ||C X|| over unit homogeneous X."""
    _check_views(obs, cams)
    return _finish(build_coefficients(obs, cams), obs, cams)


def triangulate_joint_weighted(obs: JointObservationSet, cams: dict[str, CameraView],
                               lambda_t: float,
                               use_confidence: bool = False) -> TriangulationResult:
    """Time-weighted DLT for observations taken at different instants.

    Each row is scaled by exp(-lambda_t * staleness) / ||row||, so stale
    views fade smoothly instead of dragging the solution toward where the
    joint used to be. With equal timestamps this reduces to row-normalized
    plain DLT. Callers drop observations older than their staleness horizon
    before building the set.
    """
    _check_views(obs, cams)
    C = build_coefficients(obs, cams)
    t_ref = obs.reference_time
    norms = np.linalg.norm(C, axis=1)
    if (norms <= 0).any():
        raise NearDegenerate("zero coefficient row")
    w = np.empty(len(C))
    for i, cid in enumerate(obs.cameras):
        for r in (2 * i, 2 * i + 1):
            w[r] = row_weight(t_ref, obs.times[i], lambda_t, norms[r])
        if use_confidence:
            w[2 * i:2 * i + 2] *= obs.confidences[i]
    return _finish(C * w[:, None], obs, cams)


def triangulate_group(dets, cams: dict[str, CameraView],
                      min_confidence: float) -> np.ndarray:
    """(K, 3) pose of one group of detections: triangulate_joint per joint
    over the detections whose joint is finite and at least min_confidence;
    NaN rows where that raises."""
    pose = np.full((dets[0].joints.shape[0], 3), np.nan)
    for k in range(len(pose)):
        use = [d for d in dets if d.confidences[k] >= min_confidence
               and np.isfinite(d.joints[k]).all()]
        if len(use) < 2:
            continue
        obs = JointObservationSet(tuple(d.camera_id for d in use),
                                  [d.joints[k] for d in use],
                                  [d.timestamp for d in use])
        try:
            pose[k] = triangulate_joint(obs, cams).point
        except (InsufficientViews, NearDegenerate):
            continue
    return pose


# ------------------------------------------------- scalar affinity and state


class NoState(ValueError):
    """Joint has no 3D point yet."""


class SameCamera(ValueError):
    """Epipolar affinity is undefined within a single camera."""


@dataclass(frozen=True)
class Ray3:
    """Infinite 3D line anchored at origin with unit direction."""

    origin: np.ndarray
    direction: np.ndarray


def back_project(cam: CameraView, x) -> Ray3:
    """Back-project a pixel to the 3D viewing ray through the camera center."""
    q = cam.P_plus @ hom(np.asarray(x, dtype=float))
    if abs(q[3]) > 1e-12:
        d = q[:3] / q[3] - cam.center
    else:
        # pseudo-inverse hit a point at infinity; q already is the direction
        d = q[:3]
    n = np.linalg.norm(d)
    if n < 1e-15:
        raise DegenerateProjection(f"camera {cam.id!r}: pixel maps to the center")
    return Ray3(cam.center.copy(), d / n)


def point_to_ray_distance(X, ray: Ray3) -> float:
    """Perpendicular distance from a point to the ray's infinite line."""
    v = np.asarray(X, dtype=float) - ray.origin
    return float(np.linalg.norm(np.cross(ray.direction, v)))


@dataclass(frozen=True)
class JointState:
    """Read-only snapshot of one joint of one target."""

    point: np.ndarray | None
    point_time: float
    velocity: np.ndarray
    velocity_valid: bool
    observations: dict[str, tuple[np.ndarray, float, float]]
    history: list[tuple[float, np.ndarray]]


def joint_state(tr, target, k: int) -> JointState:
    """Joint k of a live target, read from the tracker's slot arrays: the
    point (None while unsolved), its time and velocity, the newest
    observation per camera as (pixel, confidence, time), and the solution
    history in time order."""
    s = target.slot
    j = tr._joint[s, k]
    point = j[:3].copy() if np.isfinite(j[:3]).all() else None
    obs = {}
    for ci in np.flatnonzero(tr._obs_t[s, k] > -np.inf):
        obs[tr._cam_ids[ci]] = (tr._obs_xy[s, k, ci].copy(),
                                float(tr._obs_conf[s, k, ci]),
                                float(tr._obs_t[s, k, ci]))
    n = min(int(tr._hist_n[s, k]), tr._hist.shape[2])
    hist = sorted(((float(tr._hist[s, k, i, 3]), tr._hist[s, k, i, :3].copy())
                   for i in range(n)), key=lambda p: p[0])
    return JointState(point, float(j[3]), j[4:].copy(), bool(tr._vel_ok[s, k]),
                      obs, hist)


def affinity_2d(prev_xy, prev_t: float, det_xy, det_t: float, cfg) -> float:
    """Same-camera image-distance affinity between an old and a new point.

    The pixel gap is compared to alpha2d * dt, so the tolerated motion grows
    with elapsed time, and the whole term decays with exp(-lambda_a * dt).
    A zero time gap with a nonzero pixel gap cannot be the same person and
    returns -inf.
    """
    dt = det_t - prev_t
    if dt < -EPS_CLOCK:
        raise ChronologyViolation(f"detection at {det_t} predates state at {prev_t}")
    dt = max(dt, 0.0)
    d = float(np.hypot(det_xy[0] - prev_xy[0], det_xy[1] - prev_xy[1]))
    if dt == 0.0:
        return cfg.w2d if d == 0.0 else float("-inf")
    return cfg.w2d * (1.0 - d / (cfg.alpha2d * dt)) * np.exp(-cfg.lambda_a * dt)


def affinity_3d(joint, det_xy, det_t: float, cam: CameraView, cfg) -> float:
    """Ray-distance affinity between a predicted 3D joint and a detection.

    The joint is advanced along its linear velocity to det_t, then compared
    to the detection's back-projection ray. Gaps within the clock tolerance
    count as simultaneous.
    """
    if joint.point is None:
        raise NoState("joint has no 3D point")
    dt = det_t - joint.point_time
    dt = max(dt, 0.0)
    X = np.asarray(joint.point, dtype=float)
    if joint.velocity_valid:
        X = X + np.asarray(joint.velocity, dtype=float) * dt
    ray = back_project(cam, det_xy)
    d = point_to_ray_distance(X, ray)
    return cfg.w3d * (1.0 - d / cfg.alpha3d) * np.exp(-cfg.lambda_a * dt)


def estimate_velocity(history, cfg) -> tuple[np.ndarray, bool]:
    """Least-squares linear velocity from the trailing (t, point) samples.

    Returns (velocity, valid). Invalid when fewer than 2 samples remain in
    the window or the time span is under 1 ms; callers then use zero.
    """
    pts = list(history)[-cfg.velocity_window:]
    if len(pts) < 2:
        return np.zeros(3), False
    t = np.array([p[0] for p in pts])
    X = np.array([p[1] for p in pts], dtype=float)
    if t.max() - t.min() < 1e-3:
        return np.zeros(3), False
    dt = t - t.mean()
    denom = float(dt @ dt)
    v = (dt @ (X - X.mean(axis=0))) / denom
    return v, True


def body_affinity(state, det, cam: CameraView, cfg) -> float:
    """Whole-body affinity: per-joint 2D and 3D terms summed over the skeleton.

    state(k) gives joint k's JointState (or an object with its fields).
    Joints below min_joint_confidence contribute nothing, as do joints with
    no prior 2D observation in this camera (2D term) or no 3D state (3D term).
    A brand-new target with no usable joints scores exactly 0.
    """
    total = 0.0
    joints = det.joints
    confs = det.confidences
    for k in range(len(joints)):
        if confs[k] < cfg.min_joint_confidence or not np.isfinite(joints[k]).all():
            continue
        js = state(k)
        prev = js.observations.get(det.camera_id)
        if prev is not None:
            total += affinity_2d(prev[0], prev[2], joints[k], det.timestamp, cfg)
        if js.point is not None:
            total += affinity_3d(js, joints[k], det.timestamp, cam, cfg)
    return total


def epipolar_affinity(d1, d2, F: np.ndarray, cfg) -> float:
    """Symmetric detection-to-detection affinity from epipolar distances.

    F maps d1's camera to epipolar lines in d2's camera. Joints visible in
    both detections contribute 1 - (dist_1 + dist_2) / (2 * alpha2d_epi);
    the result is the mean, or -inf with fewer than min_shared_joints shared
    joints. A degenerate epipolar line contributes zero distance.
    """
    if d1.camera_id == d2.camera_id:
        raise SameCamera(f"both detections are from camera {d1.camera_id!r}")
    vis1 = (d1.confidences >= cfg.min_joint_confidence) & np.isfinite(d1.joints).all(axis=1)
    vis2 = (d2.confidences >= cfg.min_joint_confidence) & np.isfinite(d2.joints).all(axis=1)
    shared = np.flatnonzero(vis1 & vis2)
    if len(shared) < cfg.min_shared_joints:
        return float("-inf")
    total = 0.0
    for k in shared:
        try:
            dist2 = point_to_line_distance(d2.joints[k], epipolar_line(F, d1.joints[k]))
        except DegenerateLine:
            dist2 = 0.0
        try:
            dist1 = point_to_line_distance(d1.joints[k], epipolar_line(F.T, d2.joints[k]))
        except DegenerateLine:
            dist1 = 0.0
        total += 1.0 - (dist1 + dist2) / (2.0 * cfg.alpha2d_epi)
    return total / len(shared)


# ------------------------------------------------------------------ wire format

def track_record(step) -> dict:
    """Per-row reference for io_cli.track_record: each joint row and joint
    time is checked and converted on its own."""
    targets = []
    for p in sorted(step.poses, key=lambda p: p.id):
        joints = []
        for row in p.joints:
            joints.append([float(row[0]), float(row[1]), float(row[2])]
                          if np.isfinite(row).all() else None)
        times = [fmt_ts(t) if np.isfinite(t) else None for t in p.joint_times]
        targets.append({"id": p.id, "joints": joints, "joint_times": times})
    return {"timestamp": fmt_ts(step.timestamp), "targets": targets}


def parse_frame_line(line: str, path: str, lineno: int,
                     n_joints: int | None = None) -> FrameBatch:
    """Per-joint reference for io_cli.parse_frame_line: each detection gets
    its own arrays, filled one joint at a time."""
    obj = _loads(line, path, lineno)
    cid = _camera_id(obj, path, lineno)
    t = _parse_ts(_field(obj, "timestamp", path, lineno), path, lineno)
    raw_dets = _field(obj, "detections", path, lineno)
    if not isinstance(raw_dets, list):
        raise ParseError(f"{path}:{lineno}: field 'detections' must be a list")
    dets: list[Detection] = []
    for i, rd in enumerate(raw_dets):
        if not isinstance(rd, dict) or "joints" not in rd:
            raise ParseError(f"{path}:{lineno}: detection {i} must carry 'joints'")
        joints = rd["joints"]
        if not isinstance(joints, list) or not joints:
            raise ParseError(f"{path}:{lineno}: detection {i}: 'joints' must be a "
                             "non-empty list")
        k = len(joints)
        if n_joints is None:
            n_joints = k
        elif k != n_joints:
            raise ParseError(f"{path}:{lineno}: detection {i}: field 'joints' has "
                             f"{k} entries, expected {n_joints}")
        xy = np.full((k, 2), np.nan)
        conf = np.zeros(k)
        for j, entry in enumerate(joints):
            if entry is None:
                continue
            if not isinstance(entry, list) or len(entry) != 3:
                raise ParseError(f"{path}:{lineno}: detection {i} joint {j}: "
                                 "expected [x, y, confidence] or null")
            try:
                x, y, c = (float(v) for v in entry)
            except (TypeError, ValueError, OverflowError):
                raise ParseError(f"{path}:{lineno}: detection {i} joint {j}: "
                                 f"expected numbers, got {entry!r}") from None
            if not math.isfinite(c):
                raise ParseError(f"{path}:{lineno}: detection {i} joint {j}: "
                                 f"confidence {entry[2]!r} is not finite")
            if math.isfinite(x) and math.isfinite(y):
                xy[j] = (x, y)
                conf[j] = c
        dets.append(Detection(cid, t, xy, conf, index=i))
    return FrameBatch(cid, t, dets)
