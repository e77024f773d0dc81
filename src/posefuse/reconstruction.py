"""Batched plain-DLT triangulation of a skeleton's joints from several views."""

from __future__ import annotations

import numpy as np


class UnknownCamera(KeyError):
    """Observation references a camera the rig does not contain."""


def triangulate(P: np.ndarray, xy: np.ndarray, vis: np.ndarray) -> np.ndarray:
    """Plain DLT for every joint of one skeleton seen by n cameras.

    P is (n, 3, 4), one projection matrix per view; xy is (n, K, 2) pixels
    and vis (n, K) marks the joints each view sees. Each joint's point
    minimizes ||C X|| over unit homogeneous X, where C stacks the rows
    x * p3 - p1 and y * p3 - p2 of every view that sees it (p1..p3 being the
    rows of that view's P) and a zero row pair for every view that does not.
    Returns (K, 3) points, NaN for a joint seen by fewer than two views or
    whose solution is at infinity (|w| < 1e-12, parallel rays).
    """
    n, K = vis.shape
    X = np.full((K, 3), np.nan)
    ks = (np.add.reduce(vis, axis=0) >= 2).nonzero()[0]
    if ks.size == 0:
        return X
    pts = xy[:, ks].transpose(1, 0, 2)  # (k, n, 2)
    rows = pts[..., None] * P[:, 2][:, None] - P[:, :2]  # (k, n, 2, 4)
    if n > 2:  # with two views, each joint solved is seen by both
        rows = np.where(vis[:, ks].T[:, :, None, None], rows, 0.0)
    C = rows.reshape(ks.size, 2 * n, 4)
    x = np.linalg.eigh(C.transpose(0, 2, 1) @ C)[1][:, :, 0]
    ok = np.abs(x[:, 3]) >= 1e-12
    if ok.all():
        X[ks] = x[:, :3] / x[:, 3:]
    else:
        X[ks[ok]] = x[ok, :3] / x[ok, 3:]
    return X
