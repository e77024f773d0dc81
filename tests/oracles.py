"""Independent brute-force oracles used by unit and acceptance tests.

Nothing here imports from the package's solver paths; these are the slow,
obviously-correct references the fast implementations are checked against.
"""

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from posefuse.geometry import CameraView, hom
from posefuse.reconstruction import UnknownCamera


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
