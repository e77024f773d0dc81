"""Tracker settings and the epipolar affinity between pool detections.

Scores are unitless. Positive means "likely the same person", zero means
no evidence either way, -inf marks an impossible pair. The target-to-
detection affinity is CrossViewTracker._affinity_core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

# tolerated cross-source clock jitter, seconds
EPS_CLOCK = 1e-3


class ChronologyViolation(ValueError):
    """Detection is older than prior state by more than the clock tolerance."""


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
        # NaN passes every range check below
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v!r}")
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


def epipolar_affinity_matrix(xy: np.ndarray, vis: np.ndarray, camera_ids,
                             fundamentals, cfg: TrackerConfig) -> np.ndarray:
    """Pairwise epipolar affinities for a detection pool.

    xy (N, K, 2) and vis (N, K) are the pool's joints and usable-joint mask
    from tracker.stack_detections. Same-camera pairs get -inf so the
    partition step can never merge them. The matrix is symmetric with a
    zero diagonal. Every other entry is the mean over the shared usable
    joints of 1 - (dist_1 + dist_2) / (2 * alpha2d_epi), each dist being a
    point's distance to the other's epipolar line (0 for a degenerate line),
    or -inf with fewer than min_shared_joints shared joints.
    """
    n = len(xy)
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
