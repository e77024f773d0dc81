"""Independent brute-force and scalar oracles used by unit and acceptance tests.

These are the slow, obviously-correct references that the package's
vectorized paths are checked against: assignment and partition by
enumeration, per-point projection, per-joint triangulation, the per-pair
target and epipolar affinities, the per-joint velocity regression and a
per-joint view of the tracker's state, and the per-row wire format and
its per-joint and json-only readers.
Earlier, slower versions of the partition, the epipolar matrix and the DLT
block pin the package's faster ones bit for bit. The epipolar-line helpers
and the pair dict of fundamental matrices, which only the tests use, live
here too. Nothing here imports from the package's solver paths; it takes
only types, errors, constants and the small geometry helpers from it.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

import numpy as np

from posefuse.affinity import EPS_CLOCK, ChronologyViolation
from posefuse.geometry import CameraView, fundamental_from_projections, hom
from posefuse.io_cli import (ParseError, TrackRow, _at, _check_joint_count, _field,
                             _loads, _parse_ts, _str_field, fmt_ts)
from posefuse.tracker import Detection, FrameBatch, UnknownCamera


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


def best_finite_matching(a: np.ndarray) -> tuple[int, Fraction]:
    """Size and exact total of the best matchings of finite entries: the most
    pairs first, then the highest total, over every assignment of min(N, M)
    pairs with its -inf cells left out. Totals are exact rationals, so that
    entries near the float limits neither overflow nor round."""
    a = np.asarray(a, dtype=float)
    if a.shape[0] > a.shape[1]:
        a = a.T
    n, m = a.shape
    best = (0, Fraction(0))
    for perm in permutations(range(m), n):
        cells = [a[r, c] for r, c in enumerate(perm) if a[r, c] != -math.inf]
        best = max(best, (len(cells), sum(map(Fraction, cells), Fraction(0))))
    return best


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


def partition_labels(a: np.ndarray, max_exact: int = 12) -> np.ndarray:
    """Reference for partition_cycle_consistent's labels: the branch and
    bound over numpy scalars and the greedy merge that rebuilds its masks on
    every merge, as the package ran them before they moved to Python lists
    and a mask built once. The package must return these labels exactly,
    ties included."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    labels = _partition_exact(a) if n <= max_exact else _partition_greedy(a)
    remap: dict[int, int] = {}
    out = np.empty(n, dtype=int)
    for i, lab in enumerate(labels):
        out[i] = remap.setdefault(int(lab), len(remap))
    return out


def _partition_exact(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    forbidden = np.isneginf(a)
    gain = np.where(np.isfinite(a), a, 0.0)
    pos = np.where(gain > 0, gain, 0.0)
    suffix = np.zeros(n + 1)
    for q in range(n - 1, -1, -1):
        suffix[q] = suffix[q + 1] + pos[:q, q].sum()

    best_obj = -np.inf
    best = np.arange(n)
    labels = np.zeros(n, dtype=int)
    members: list[list[int]] = []

    def rec(i: int, obj: float):
        nonlocal best_obj, best
        if obj + suffix[i] <= best_obj:
            return
        if i == n:
            best_obj = obj
            best = labels[:n].copy()
            return
        for ci, mem in enumerate(members):
            add = 0.0
            ok = True
            for j in mem:
                if forbidden[i, j]:
                    ok = False
                    break
                add += gain[i, j]
            if not ok:
                continue
            labels[i] = ci
            mem.append(i)
            rec(i + 1, obj + add)
            mem.pop()
        labels[i] = len(members)
        members.append([i])
        rec(i + 1, obj)
        members.pop()

    rec(0, 0.0)
    return best


def _partition_greedy(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    bad = np.isneginf(a)
    cross = np.where(np.isfinite(a), a, 0.0).copy()
    np.fill_diagonal(cross, 0.0)
    alive = np.ones(n, dtype=bool)
    owner = np.arange(n)
    while True:
        cand = cross.copy()
        cand[bad] = -np.inf
        cand[~alive, :] = -np.inf
        cand[:, ~alive] = -np.inf
        cand[np.tril_indices(n)] = -np.inf
        i, j = np.unravel_index(np.argmax(cand), cand.shape)
        if not np.isfinite(cand[i, j]) or cand[i, j] <= 0.0:
            break
        cross[i, :] += cross[j, :]
        cross[:, i] += cross[:, j]
        bad[i, :] |= bad[j, :]
        bad[:, i] |= bad[:, j]
        cross[i, i] = 0.0
        alive[j] = False
        owner[owner == j] = i
    return owner


# ------------------------------------------------- scalar projection


class DegenerateProjection(ValueError):
    """Point has (near-)zero or negative depth in the camera frame."""


def project(cam: CameraView, X) -> np.ndarray:
    """Project one world point to pixels, as geometry.project_points does a
    batch.

    Raises DegenerateProjection when the depth is (near-)zero or negative;
    the caller decides whether behind-camera points matter.
    """
    w = cam.P @ hom(np.asarray(X, dtype=float))
    if abs(w[2]) < 1e-9:
        raise DegenerateProjection(f"camera {cam.id!r}: zero-depth point")
    if w[2] < 0:
        raise DegenerateProjection(f"camera {cam.id!r}: point behind camera")
    return w[:2] / w[2]


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


def triangulate_group(dets, cams: dict[str, CameraView], min_confidence: float,
                      lambda_t: float | None = None, use_confidence: bool = False,
                      horizon: float = math.inf) -> np.ndarray:
    """(K, 3) pose of one group of detections, per joint over the detections
    whose joint is finite and at least min_confidence: triangulate_joint, or,
    given lambda_t, triangulate_joint_weighted over those within horizon of
    the newest one; NaN rows where that raises."""
    pose = np.full((dets[0].joints.shape[0], 3), np.nan)
    for k in range(len(pose)):
        use = [d for d in dets if d.confidences[k] >= min_confidence
               and np.isfinite(d.joints[k]).all()]
        if lambda_t is not None and use:
            t_ref = max(d.timestamp for d in use)
            use = [d for d in use if t_ref - d.timestamp <= horizon]
        if len(use) < 2:
            continue
        obs = JointObservationSet(tuple(d.camera_id for d in use),
                                  [d.joints[k] for d in use],
                                  [d.timestamp for d in use],
                                  [d.confidences[k] for d in use])
        try:
            pose[k] = (triangulate_joint(obs, cams) if lambda_t is None else
                       triangulate_joint_weighted(obs, cams, lambda_t, use_confidence)).point
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
    observations: dict[str, tuple[np.ndarray, float, float]]
    history: list[tuple[float, np.ndarray]]


def joint_state(tr, s: int, k: int) -> JointState:
    """Joint k of the live target in row s of the tracker's state arrays,
    which is its position in tr.targets: the point (None while unsolved),
    its time and velocity, the newest observation per camera as (pixel,
    confidence, time), and the solution history in time order."""
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
    return JointState(point, float(j[3]), j[4:].copy(), obs, hist)


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

    The joint is advanced along its linear velocity, zero when not valid,
    to det_t, then compared to the detection's back-projection ray. Gaps
    within the clock tolerance count as simultaneous.
    """
    if joint.point is None:
        raise NoState("joint has no 3D point")
    dt = det_t - joint.point_time
    dt = max(dt, 0.0)
    X = np.asarray(joint.point, dtype=float) + np.asarray(joint.velocity, dtype=float) * dt
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
    A pair where no usable joint has a term is impossible and scores -inf.
    """
    total = 0.0
    terms = 0
    joints = det.joints
    confs = det.confidences
    for k in range(len(joints)):
        if confs[k] < cfg.min_joint_confidence or not np.isfinite(joints[k]).all():
            continue
        js = state(k)
        prev = js.observations.get(det.camera_id)
        if prev is not None:
            total += affinity_2d(prev[0], prev[2], joints[k], det.timestamp, cfg)
            terms += 1
        if js.point is not None:
            total += affinity_3d(js, joints[k], det.timestamp, cam, cfg)
            terms += 1
    return total if terms else float("-inf")


class DegenerateLine(ValueError):
    """Epipolar line has no direction; the source point is the epipole."""


def point_to_line_distance(x, line: np.ndarray) -> float:
    """Distance from a 2D point to a normalized homogeneous line."""
    return float(abs(line[0] * x[0] + line[1] * x[1] + line[2]))


def epipolar_line(F: np.ndarray, x) -> np.ndarray:
    """Map a pixel through F to the epipolar line in the other view.

    The returned line is scaled so its normal (a, b) has unit length, which
    makes point_to_line_distance a plain dot product.
    """
    l = F @ hom(np.asarray(x, dtype=float))
    n = np.hypot(l[0], l[1])
    if n < 1e-12:
        raise DegenerateLine("point is the epipole; epipolar line undefined")
    return l / n


def fundamental_pairs(cams: list[CameraView]) -> dict[tuple[str, str], np.ndarray]:
    """Every camera pair's fundamental matrix keyed (from_id, to_id), as
    geometry.build_fundamental_table stacks them: fundamental_from_projections
    for each pair in rig order, and its transpose for the reverse pair."""
    pairs = {}
    for i, a in enumerate(cams):
        for b in cams[i + 1:]:
            pairs[(a.id, b.id)] = fundamental_from_projections(a, b)
            pairs[(b.id, a.id)] = pairs[(a.id, b.id)].T
    return pairs


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


def _epipolar_distances(src: np.ndarray, dst: np.ndarray, M: np.ndarray) -> np.ndarray:
    line = src @ M
    norm = np.hypot(line[..., 0], line[..., 1])
    with np.errstate(all="ignore"):
        line /= norm[..., None]
        d = np.abs(line[..., 0] * dst[..., 0] + line[..., 1] * dst[..., 1] + line[..., 2])
    return np.where(norm < 1e-12, 0.0, d)


def epipolar_affinity_matrix(xy: np.ndarray, vis: np.ndarray, camera_ids,
                             fundamentals, cfg) -> np.ndarray:
    """Reference for the package's epipolar_affinity_matrix, entry for entry
    under ==: the same arithmetic over the cross-camera pairs only, with
    fresh pair indices on every call, one distance call per direction and
    one lookup in fundamentals, a fundamental_pairs dict, per ordered camera
    pair that occurs. Far-off pixels can
    raise numpy warnings here; callers that feed them suppress those."""
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
        pair = cam[i] * len(cams) + cam[j]
        F_tab = np.zeros((len(cams) ** 2, 3, 3))
        for p in np.unique(pair).tolist():
            F_tab[p] = fundamentals[(cams[p // len(cams)], cams[p % len(cams)])]
        F = F_tab[pair]
        xh = np.concatenate([xy, np.ones(xy.shape[:2] + (1,))], axis=2)
        d2 = _epipolar_distances(xh[i], xh[j], np.ascontiguousarray(F.transpose(0, 2, 1)))
        d1 = _epipolar_distances(xh[j], xh[i], F)
        shared = vis[i] & vis[j]
        n_shared = shared.sum(axis=1)
        score = np.where(shared, 1.0 - (d1 + d2) / (2.0 * cfg.alpha2d_epi), 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            v = score.sum(axis=1) / n_shared
        a[i, j] = np.where(n_shared < cfg.min_shared_joints, -np.inf, v)
    return a + a.T


def dlt_block(P: np.ndarray, xy: np.ndarray, weighted: bool) -> np.ndarray:
    """Reference for CrossViewTracker._dlt_block with one camera: the
    flattened r1 r1' + r2 r2' of each point's DLT rows under projection P
    (3, 4), each row scaled to unit length when weighted."""
    r = xy[:, :, None] * P[2] - P[:2]
    if weighted:
        r /= np.sqrt(np.einsum("nij,nij->ni", r, r))[:, :, None]
    return (np.ascontiguousarray(r.transpose(0, 2, 1)) @ r).reshape(-1, 16)


# ------------------------------------------------------------------ wire format

def records(path: str, convert):
    """json-only reference for io_cli._records: convert(obj) for the object
    that the stdlib json module alone decodes from each non-blank line."""
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if line.strip():
                try:
                    record = convert(_loads(line))
                except ParseError as e:
                    raise _at(path, lineno, e) from None
                yield record


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
    try:
        obj = _loads(line)
        cid = _str_field(obj, "camera_id")
        t = _parse_ts(_field(obj, "timestamp"))
        raw_dets = _field(obj, "detections")
    except ParseError as e:
        raise ParseError(f"{path}:{lineno}: {e}") from None
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


def track_row(obj: dict) -> TrackRow:
    """Per-joint reference for io_cli's track-row decoder: each joint row of
    each target is checked and converted with float() on its own."""
    t = _parse_ts(_field(obj, "timestamp"))
    targets, times = {}, {}
    raw_targets = _field(obj, "targets")
    if not isinstance(raw_targets, list):
        raise ParseError("field 'targets' must be a list")
    for tg in raw_targets:
        if not isinstance(tg, dict):
            raise ParseError("each target must be an object")
        tid = tg.get("id")
        if type(tid) is not int:
            raise ParseError("target id must be an integer")
        if tid in targets:
            raise ParseError(f"duplicate target id {tid}")
        joints = tg.get("joints")
        if not isinstance(joints, list):
            raise ParseError(f"target {tid}: bad 'joints'")
        _check_joint_count(len(joints), f"target {tid}")
        xyz = np.full((len(joints), 3), np.nan)
        jt = np.full(len(joints), np.nan)
        for j, entry in enumerate(joints):
            if entry is None:
                continue
            if not isinstance(entry, list) or len(entry) != 3:
                raise ParseError(f"target {tid} joint {j}: expected [X, Y, Z] or null")
            try:
                xyz[j] = [float(v) for v in entry]
            except (TypeError, ValueError, OverflowError):
                raise ParseError(f"target {tid} joint {j}: expected numbers, "
                                 f"got {entry!r}") from None
        raw_times = tg.get("joint_times")
        if raw_times is None:
            raw_times = []
        if not isinstance(raw_times, list) or len(raw_times) > len(joints):
            raise ParseError(f"target {tid}: 'joint_times' must be a list with at "
                             "most one entry per joint")
        for j, entry in enumerate(raw_times):
            if entry is not None:
                jt[j] = _parse_ts(entry, "joint_times")
        targets[tid] = xyz
        times[tid] = jt
    return TrackRow(t, targets, times)


def truth_points(raw, what: str) -> np.ndarray:
    """Per-row reference for io_cli._parse_points: each [X, Y, Z] row is
    converted with float() on its own."""
    try:
        if isinstance(raw, list) and all(isinstance(r, list) and len(r) == 3
                                         for r in raw):
            return np.array([[float(x) for x in r] for r in raw]).reshape(-1, 3)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ParseError(f"{what}: expected a list of [X, Y, Z] rows")
