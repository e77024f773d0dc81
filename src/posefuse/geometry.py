"""Calibrated-camera math: projection and fundamental matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class CoincidentCenters(ValueError):
    """Camera pair shares a center, so no fundamental matrix exists."""


class RankDeficientP(ValueError):
    """Projection matrix does not have full row rank."""


def hom(p: np.ndarray) -> np.ndarray:
    """Append a unit coordinate: (..., d) -> (..., d+1)."""
    p = np.asarray(p, dtype=float)
    return np.concatenate([p, np.ones(p.shape[:-1] + (1,))], axis=-1)


@dataclass(frozen=True)
class CameraView:
    """One calibrated camera. Immutable after construction.

    P maps homogeneous world meters to homogeneous pixels. P_plus is the
    Moore-Penrose pseudo-inverse, from which the fundamental matrices and
    the tracker's rays are built. center is the camera center in meters.
    """

    id: str
    P: np.ndarray
    P_plus: np.ndarray
    center: np.ndarray
    image_size: tuple[int, int]

    @classmethod
    def from_projection(cls, cam_id: str, P, image_size=(1280, 720)) -> "CameraView":
        P = np.ascontiguousarray(P, dtype=float).reshape(3, 4)
        _, s, vt = np.linalg.svd(P)
        if s[2] <= s[0] * 1e-10:
            raise RankDeficientP(f"camera {cam_id!r}: projection matrix has rank < 3")
        c = vt[3]
        if abs(c[3]) < 1e-12 * np.linalg.norm(c[:3]):
            raise RankDeficientP(f"camera {cam_id!r}: camera center at infinity")
        center = c[:3] / c[3]
        P_plus = np.linalg.pinv(P)
        for a in (P, P_plus, center):
            a.setflags(write=False)
        return cls(cam_id, P, P_plus, center, (int(image_size[0]), int(image_size[1])))


def project_points(cam: CameraView, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batch projection without exceptions: (n, 3) -> ((n, 2) pixels, (n,) depths).

    Pixels for non-positive depths are garbage; callers must mask on depth.
    """
    w = hom(X) @ cam.P.T
    depth = w[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        uv = w[:, :2] / depth[:, None]
    return uv, depth


def fundamental_from_projections(cam1: CameraView, cam2: CameraView) -> np.ndarray:
    """Fundamental matrix mapping cam1 pixels to epipolar lines in cam2.

    Built as [e2]_x P2 P1^+ with e2 the epipole of cam1's center in cam2,
    then scaled to unit Frobenius norm.
    """
    if np.linalg.norm(cam1.center - cam2.center) < 1e-9:
        raise CoincidentCenters(f"cameras {cam1.id!r} and {cam2.id!r} share a center")
    e2 = cam2.P @ hom(cam1.center)
    skew = np.array([
        [0.0, -e2[2], e2[1]],
        [e2[2], 0.0, -e2[0]],
        [-e2[1], e2[0], 0.0],
    ])
    F = skew @ cam2.P @ cam1.P_plus
    return F / np.linalg.norm(F)


def build_fundamental_table(cams: list[CameraView]) -> np.ndarray:
    """Every pairwise fundamental matrix of C cameras in one (2 C^2, 3, 3)
    array for batched lookups. With a and b two cameras' positions in cams,
    entry a * C + b is F' and entry C^2 + a * C + b is F, the matrix mapping
    a's pixels to epipolar lines in b: fundamental_from_projections for each
    pair in rig order, and its transpose for the reverse pair. The entries of
    a camera with itself are zero."""
    C = len(cams)
    F = np.zeros((C, C, 3, 3))
    for i, a in enumerate(cams):
        for j in range(i + 1, C):
            F[i, j] = fundamental_from_projections(a, cams[j])
            F[j, i] = F[i, j].T
    F = F.reshape(C * C, 3, 3)
    return np.concatenate([F.transpose(0, 2, 1), F])
