"""Shared fixtures and random-rig helpers for the test suite."""

import numpy as np
import pytest

from posefuse.geometry import CameraView
from posefuse.tracker import Detection, FrameBatch


def look_at_rotation(center, target, up=(0.0, 0.0, 1.0)):
    """World-to-camera rotation with +z forward and +y pointing down-image."""
    fwd = np.asarray(target, float) - np.asarray(center, float)
    fwd = fwd / np.linalg.norm(fwd)
    right = np.cross(fwd, np.asarray(up, float))
    if np.linalg.norm(right) < 1e-6:
        right = np.cross(fwd, np.array([0.0, 1.0, 0.0]))
    right = right / np.linalg.norm(right)
    down = np.cross(fwd, right)
    return np.stack([right, down, fwd])


def make_camera(cam_id, center, target=(0.0, 0.0, 1.0), focal=900.0,
                image_size=(1280, 720)):
    center = np.asarray(center, float)
    R = look_at_rotation(center, target)
    K = np.array([
        [focal, 0.0, image_size[0] / 2.0],
        [0.0, focal, image_size[1] / 2.0],
        [0.0, 0.0, 1.0],
    ])
    P = K @ np.hstack([R, -R @ center[:, None]])
    return CameraView.from_projection(cam_id, P, image_size)


def random_camera(rng, cam_id="cam"):
    """Camera on a sphere shell looking near the origin."""
    az = rng.uniform(0, 2 * np.pi)
    el = rng.uniform(-0.2, 0.9)
    r = rng.uniform(3.0, 5.0)
    center = r * np.array([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)])
    center[2] += 1.5
    target = rng.uniform(-0.5, 0.5, size=3) + np.array([0.0, 0.0, 1.0])
    focal = rng.uniform(600.0, 1200.0)
    return make_camera(cam_id, center, target, focal)


def random_rig(rng, n_cams):
    return [random_camera(rng, f"cam{i:02d}") for i in range(n_cams)]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def add_shifted_ghosts(frames, image_size, rate, seed):
    """Append a Poisson(rate) count of false-positive skeletons to each frame.

    Each ghost is a real detection of the same frame shifted by a uniform
    offset of up to half the image in each axis, keeping only the joints that
    stay inside the image (ghosts with fewer than 3 are dropped). Ghosts take
    the next free indices, so real detections keep theirs and the truth's
    identity map stays valid for them.
    """
    rng = np.random.default_rng(seed)
    W, H = image_size
    half = np.array([W / 2.0, H / 2.0])
    out = []
    for f in frames:
        dets = list(f.detections)
        for _ in range(int(rng.poisson(rate)) if f.detections else 0):
            src = f.detections[int(rng.integers(len(f.detections)))]
            xy = src.joints + rng.uniform(-half, half)
            with np.errstate(invalid="ignore"):
                inside = np.isfinite(xy).all(axis=1) & (xy[:, 0] >= 0) \
                    & (xy[:, 0] < W) & (xy[:, 1] >= 0) & (xy[:, 1] < H)
            if inside.sum() >= 3:
                dets.append(Detection(f.camera_id, f.timestamp,
                                      np.where(inside[:, None], xy, np.nan),
                                      np.where(inside, src.confidences, 0.0),
                                      index=len(dets)))
        out.append(FrameBatch(f.camera_id, f.timestamp, dets))
    return out
