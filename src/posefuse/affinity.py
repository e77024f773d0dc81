"""Geometric affinity between tracked 3D targets and 2D detections.

Scores are unitless. Positive means "likely the same person", zero means
no evidence either way, -inf marks an impossible pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CameraView, DegenerateLine, back_project, epipolar_line, \
    point_to_line_distance, point_to_ray_distance

# tolerated cross-source clock jitter, seconds
EPS_CLOCK = 1e-3


class ChronologyViolation(ValueError):
    """Detection is older than prior state by more than the clock tolerance."""


class NoState(ValueError):
    """Joint has no 3D point yet."""


class SameCamera(ValueError):
    """Epipolar affinity is undefined within a single camera."""


@dataclass(frozen=True)
class TrackerConfig:
    """Tuning knobs shared by affinity, reconstruction and the tracker.

    alpha2d is pixels per second of tolerated image motion, alpha3d is the
    meters of tolerated point-to-ray gap, lambda_a and lambda_t are 1/s decay
    rates for affinity and triangulation weights. alpha2d_epi is the pixel
    gate for detection-to-detection epipolar distances and defaults to half
    of alpha2d. Weights w2d/w3d need no normalization; scaling both scales
    every affinity without changing any argmax.
    """

    w2d: float = 0.4
    w3d: float = 0.6
    alpha2d: float = 60.0
    alpha3d: float = 0.15
    lambda_a: float = 5.0
    lambda_t: float = 10.0
    match_threshold: float = 0.0
    retire_after: float = 1.0
    velocity_window: int = 10
    min_joint_confidence: float = 0.1
    min_views_init: int = 2
    alpha2d_epi: float | None = None
    min_shared_joints: int = 3
    max_exact_partition: int = 12
    confidence_weighting: bool = False

    def __post_init__(self):
        if self.w2d < 0 or self.w3d < 0:
            raise ValueError("w2d and w3d must be nonnegative")
        if self.alpha2d <= 0 or self.alpha3d <= 0:
            raise ValueError("alpha2d and alpha3d must be positive")
        if self.lambda_a < 0 or self.lambda_t < 0:
            raise ValueError("lambda_a and lambda_t must be nonnegative")
        if self.velocity_window < 2:
            raise ValueError("velocity_window must be at least 2")
        if self.retire_after <= 0:
            raise ValueError("retire_after must be positive")
        if self.min_views_init < 2:
            raise ValueError("min_views_init must be at least 2")
        if self.min_shared_joints < 1:
            raise ValueError("min_shared_joints must be at least 1")
        if self.alpha2d_epi is None:
            object.__setattr__(self, "alpha2d_epi", self.alpha2d * 0.5)
        if self.alpha2d_epi <= 0:
            raise ValueError("alpha2d_epi must be positive")


def affinity_2d(prev_xy, prev_t: float, det_xy, det_t: float,
                cfg: TrackerConfig) -> float:
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


def affinity_3d(joint, det_xy, det_t: float, cam: CameraView,
                cfg: TrackerConfig) -> float:
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


def estimate_velocity(history, cfg: TrackerConfig) -> tuple[np.ndarray, bool]:
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


def body_affinity(target, det, cam: CameraView, cfg: TrackerConfig) -> float:
    """Whole-body affinity: per-joint 2D and 3D terms summed over the skeleton.

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
        js = target.joint_state(k)
        prev = js.observations.get(det.camera_id)
        if prev is not None:
            total += affinity_2d(prev[0], prev[2], joints[k], det.timestamp, cfg)
        if js.point is not None:
            total += affinity_3d(js, joints[k], det.timestamp, cam, cfg)
    return total


def epipolar_affinity(d1, d2, F: np.ndarray, cfg: TrackerConfig) -> float:
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


def _epipolar_distances(src: np.ndarray, dst: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Distances |l . dst| to the epipolar lines l = src @ M scaled to a unit
    normal, 0 where a line has no direction. src and dst are (P, K, 3)
    homogeneous pixels, M is (P, 3, 3)."""
    line = src @ M
    norm = np.hypot(line[..., 0], line[..., 1])
    with np.errstate(all="ignore"):
        line /= norm[..., None]
        d = np.abs(line[..., 0] * dst[..., 0] + line[..., 1] * dst[..., 1] + line[..., 2])
    return np.where(norm < 1e-12, 0.0, d)


def epipolar_affinity_matrix(dets, camera_ids, fundamentals, cfg: TrackerConfig) -> np.ndarray:
    """Pairwise epipolar affinities for a detection pool.

    Same-camera pairs get -inf so the partition step can never merge them.
    The matrix is symmetric with a zero diagonal. Every other entry is
    epipolar_affinity of the pair, computed for all pairs at once.
    """
    n = len(dets)
    a = np.zeros((n, n))
    if n < 2:
        return a
    cams = sorted(set(camera_ids))
    index = {cid: c for c, cid in enumerate(cams)}
    cam = np.array([index[cid] for cid in camera_ids])
    i, j = np.triu_indices(n, 1)
    cross = cam[i] != cam[j]
    a[i[~cross], j[~cross]] = -np.inf
    i, j = i[cross], j[cross]
    if i.size:
        # one lookup per ordered camera pair that occurs; F maps i's pixels
        # to epipolar lines in j's image
        pair = cam[i] * len(cams) + cam[j]
        F_tab = np.zeros((len(cams) ** 2, 3, 3))
        for p in np.unique(pair).tolist():
            F_tab[p] = fundamentals[(cams[p // len(cams)], cams[p % len(cams)])]
        F = F_tab[pair]
        xy = np.array([d.joints for d in dets], dtype=float)
        conf = np.array([d.confidences for d in dets], dtype=float)
        vis = (conf >= cfg.min_joint_confidence) & np.isfinite(xy).all(axis=2)
        xh = np.concatenate([xy, np.ones(xy.shape[:2] + (1,))], axis=2)
        # row-vector form: F x_i is x_i @ F', and F' x_j is x_j @ F
        d2 = _epipolar_distances(xh[i], xh[j], np.ascontiguousarray(F.transpose(0, 2, 1)))
        d1 = _epipolar_distances(xh[j], xh[i], F)
        shared = vis[i] & vis[j]
        n_shared = shared.sum(axis=1)
        score = np.where(shared, 1.0 - (d1 + d2) / (2.0 * cfg.alpha2d_epi), 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            v = score.sum(axis=1) / n_shared
        a[i, j] = np.where(n_shared < cfg.min_shared_joints, -np.inf, v)
    return a + a.T
