"""Cross-view tracking loop: match, update, initialize, retire.

Targets live in 3-space and are updated one camera frame at a time; no
frame-level synchronization between cameras is assumed anywhere. All target
state sits in tracker-level arrays with one row per live target, rows
0..L-1 in output order, so that each step runs a constant number of
vectorized passes over slices of them regardless of how many targets matched.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .affinity import EPS_CLOCK, ChronologyViolation, TrackerConfig, \
    epipolar_affinity_matrix
from .assignment import hungarian_max, partition_cycle_consistent
from .geometry import CameraView, build_fundamental_table


class UnknownCamera(KeyError):
    """Observation references a camera the rig does not contain."""


# Largest bound on the sine of the angle between an inverse-iteration answer
# and the true null direction for the answer to count as converged.
_CONV_TOL = 1e-12


def _cofactor_table():
    """For each entry (i, j) of a 4x4 matrix, row-major, the nine entries of
    the 3x3 minor that omits row i and column j, with two columns swapped
    when i + j is odd so that the minor's determinant is the cofactor."""
    table = []
    for i in range(4):
        for j in range(4):
            rows = [r for r in range(4) if r != i]
            cols = [c for c in range(4) if c != j]
            if (i + j) % 2:
                cols[0], cols[1] = cols[1], cols[0]
            table.append([4 * r + c for r in rows for c in cols])
    return np.array(table).T  # (9, 16)


# With a..i the minor's entries row by row, its determinant is
# a (e i - f h) - b (d i - f g) + c (d h - e g): the rows of this table pick
# the operands (a, b, c), (e, d, d), (i, i, h), (f, f, e) and (h, g, g).
_COFACTORS = _cofactor_table()[[[0, 1, 2], [4, 3, 3], [8, 8, 7], [5, 5, 4],
                                 [7, 6, 6]]]  # (5, 3, 16)


def null_directions(AtA: np.ndarray, X_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit null directions (N, 4) of (N, 4, 4) homogeneous normal matrices.

    Each answer is the unit eigenvector x of the smallest eigenvalue l0 of
    its system, with an arbitrary sign. Inverse iteration runs five steps
    from the previous point X_prev (N, 3) on B, the system scaled to unit
    trace, multiplying by adj(B) = det(B) B^-1, which stays finite when B is
    singular, so no shift is needed; five, because noisy views leave l0 / l1
    near 1e-3, where three steps end just short of the bound below. The
    answer counts as converged when the residual bound sin(angle to the true
    eigenvector) <= |Bx - rho x| / (l1 - rho) is below 1e-12, with
    rho = x'Bx >= l0 and the next eigenvalue l1 >= 4 det(B) / rho, which
    holds because l0 <= rho and l2 l3 <= (tr(B) / 2)^2 = 1/4. Systems whose
    X_prev is not finite, and systems left unsettled, are solved by eigh, at
    once when no X_prev is finite, as for a new target.

    Returns the directions and a mask of the systems that inverse iteration
    settled.
    """
    N = AtA.shape[0]
    if not np.isfinite(X_prev).any():
        return np.linalg.eigh(AtA)[1][:, :, 0], np.zeros(N, dtype=bool)
    with np.errstate(all="ignore"):
        B = AtA / np.einsum("nii->n", AtA)[:, None, None]
        abc, L1, R1, L2, R2 = B.reshape(N, 16).T.take(_COFACTORS, axis=0)
        t = abc * (L1 * R1 - L2 * R2)
        adj = (t[0] - t[1] + t[2]).T.reshape(N, 4, 4)
        x = np.ones((N, 4, 1))
        x[:, :3, 0] = X_prev  # NaN rows stay NaN and fail the test below
        x = adj @ (adj @ (adj @ (adj @ (adj @ x))))
        x, conv = _settled(B, x, 4.0 * np.einsum("nj,nj->n", B[:, 0], adj[:, 0]))
    x = x[:, :, 0]
    if not conv.all():
        cold = np.flatnonzero(~conv)
        x[cold] = np.linalg.eigh(AtA[cold])[1][:, :, 0]
    return x, conv


def triangulate(AtA: np.ndarray, X_prev: np.ndarray) -> np.ndarray:
    """Points (N, 3) from (N, 4, 4) DLT normal matrices: the null direction of
    each system, from null_directions warm-started at X_prev (N, 3), whose NaN
    rows go to eigh, dehomogenized. A row is NaN where its solution is at
    infinity (|w| < 1e-12, parallel rays)."""
    x = null_directions(AtA, X_prev)[0]
    x[np.abs(x[:, 3]) < 1e-12] = np.nan
    return x[:, :3] / x[:, 3:]


def _settled(B: np.ndarray, x: np.ndarray, gap: np.ndarray):
    """x (N, 4, 1) scaled to unit length, and whether it passes the residual
    test of null_directions; gap holds 4 det(B) per system, from which the
    bound on l1 - rho follows."""
    x = x / np.sqrt(np.einsum("nij,nij->n", x, x))[:, None, None]
    Bx = B @ x
    rho = np.einsum("nij,nij->n", x, Bx)
    r = Bx - rho[:, None, None] * x
    return x, np.sqrt(np.einsum("nij,nij->n", r, r)) < _CONV_TOL * (gap / rho - rho)


@dataclass
class Detection:
    """One person candidate in one camera frame.

    joints is (K, 2) pixels with NaN rows for missing joints; confidences is
    (K,). index is the detection's position within its frame and, together
    with (camera_id, timestamp), identifies it in assignment records.
    """

    camera_id: str
    timestamp: float
    joints: np.ndarray
    confidences: np.ndarray
    index: int = 0

    def __post_init__(self):
        self.joints = np.asarray(self.joints, dtype=float).reshape(-1, 2)
        self.confidences = np.asarray(self.confidences, dtype=float).reshape(-1)


class FrameBatch:
    """One camera frame: the M detections that camera camera_id saw at
    timestamp, held as arrays: joints xy (M, K, 2) in pixels, with NaN rows
    for missing joints, confidences conf (M, K), and index (M,), each
    detection's position within its frame, which together with (camera_id,
    timestamp) names it in assignment records.

    FrameBatch(camera_id, timestamp, [Detection, ...]) builds a frame from a
    list, which detections then returns; the arrays are stacked from it on
    their first read, so change the list only before that. The stacking
    raises ValueError unless every detection carries the frame's camera and
    time, and K joints and K confidences for one K. FrameBatch.of_arrays
    builds a frame from the arrays, as the parser does; its detections are
    views of their rows, built on each read.
    """

    __slots__ = ("camera_id", "timestamp", "_detections", "_arrays")

    def __init__(self, camera_id: str, timestamp: float, detections: list[Detection]):
        self.camera_id = camera_id
        self.timestamp = timestamp
        self._detections = detections
        self._arrays = None

    @classmethod
    def of_arrays(cls, camera_id: str, timestamp: float, xy: np.ndarray,
                  conf: np.ndarray, index: np.ndarray) -> FrameBatch:
        frame = cls(camera_id, timestamp, None)
        frame._arrays = xy, conf, index
        return frame

    @property
    def detections(self) -> list[Detection]:
        if self._detections is not None:
            return self._detections
        xy, conf, index = self._arrays
        return [Detection(self.camera_id, self.timestamp, a, c, i)
                for a, c, i in zip(xy, conf, index.tolist())]

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """xy, conf and index; for a frame of no detection, (0, 0, 2) and
        (0, 0) arrays and an empty index."""
        if self._arrays is None:
            cid, t, dets = self.camera_id, self.timestamp, self._detections
            for d in dets:
                if d.camera_id != cid or d.timestamp != t:
                    raise ValueError(f"a detection in camera {cid!r}'s frame at {t} "
                                     f"carries camera {d.camera_id!r} and time {d.timestamp}")
            xy, conf = _stack(dets) if dets else (np.zeros((0, 0, 2)), np.zeros((0, 0)))
            self._arrays = xy, conf, np.array([d.index for d in dets], dtype=np.intp)
        return self._arrays


def _stack(dets: list[Detection]) -> tuple[np.ndarray, np.ndarray]:
    """Joints (M, K, 2) and confidences (M, K) of dets. Raises ValueError
    unless every detection has K joints and K confidences."""
    xy = np.array([d.joints for d in dets])
    conf = np.array([d.confidences for d in dets])
    if conf.shape != xy.shape[:2]:
        raise ValueError("a detection's confidences do not match its joints")
    return xy, conf


def _usable(xy: np.ndarray, conf: np.ndarray, min_confidence: float) -> np.ndarray:
    """The mask (M, K) of usable joints: finite, with confidence at least
    min_confidence."""
    return (conf >= min_confidence) & np.isfinite(xy).all(axis=2)


def stack_detections(dets: list[Detection], min_confidence: float):
    """Joints (M, K, 2), confidences (M, K) and the mask of usable joints of
    dets, as _stack and _usable give them."""
    xy, conf = _stack(dets)
    return xy, conf, _usable(xy, conf, min_confidence)


def cluster_pool(a: np.ndarray, cfg: TrackerConfig) -> list[list[int]]:
    """Group detections from different cameras into people: the association
    that builds new targets from the tracker's pool and that the per-frame
    baseline runs on every frame.

    a (N, N) is the detections' epipolar affinity matrix. It is partitioned
    cycle-consistently, and the member indices of each group of at least
    min_views_init detections come back in order of first member, as the
    partition numbers its labels. When every pair scores below 0 the
    partition is all singletons, which min_views_init >= 2 drops, so it is
    not run.
    """
    n = len(a)
    if np.count_nonzero(a < 0) == n * (n - 1):  # the zero diagonal never counts
        return []
    groups: dict[int, list[int]] = {}
    for i, lab in enumerate(partition_cycle_consistent(a, cfg.max_exact_partition)):
        groups.setdefault(lab, []).append(i)
    return [c for c in groups.values() if len(c) >= cfg.min_views_init]


@dataclass(frozen=True)
class AssignmentRecord:
    camera_id: str
    timestamp: float
    index: int
    target_id: int | None


@dataclass(frozen=True)
class TargetPose:
    id: int
    joints: np.ndarray
    joint_times: np.ndarray


@dataclass(frozen=True)
class StepResult:
    """One step's outcome. The live targets after it are ids, in output
    order, and points (L, K, 4): each joint's x, y, z and the time of that
    solution, NaN while unsolved; points is a copy, which later steps leave
    as it is."""

    camera_id: str
    timestamp: float
    ids: list[int]
    points: np.ndarray
    assignments: list[AssignmentRecord]
    retired: list[int]

    @property
    def poses(self) -> list[TargetPose]:
        """The live targets in output order, as views of points."""
        return _pose_views(self.ids, self.points)


def _pose_views(ids: list[int], points: np.ndarray) -> list[TargetPose]:
    """One TargetPose per id, viewing its (K, 4) row of points."""
    return [TargetPose(tid, p[:, :3], p[:, 3]) for tid, p in zip(ids, points)]


class CrossViewTracker:
    """Fuses per-camera 2D pose streams into identity-stable 3D targets.

    weighted=False switches every solve, a new target's first one included,
    from time-weighted to plain triangulation.
    """

    def __init__(self, cameras: list[CameraView], cfg: TrackerConfig | None = None,
                 weighted: bool = True):
        if not cameras:
            raise ValueError("need at least one camera")
        self.cfg = cfg or TrackerConfig()
        self.weighted = weighted
        self._cam_ids = [c.id for c in cameras]
        self._cam_idx = {cid: i for i, cid in enumerate(self._cam_ids)}
        if len(self._cam_idx) != len(cameras):
            raise ValueError("duplicate camera id")
        self._P = np.stack([c.P for c in cameras])
        self._centers = np.stack([c.center for c in cameras])
        # Ray direction of pixel (x, y): q[:3] - q[3] * center for
        # q = P^+ (x, y, 1), which is parallel to the back-projected point
        # minus the center and stays defined when q[3] is 0; split as
        # (x, y) @ _ray_xy + _ray_1.
        P_plus = np.stack([c.P_plus for c in cameras])
        D = P_plus[:, :3] - self._centers[:, :, None] * P_plus[:, 3:]
        self._ray_xy = np.ascontiguousarray(D[:, :, :2].transpose(0, 2, 1))
        self._ray_1 = np.ascontiguousarray(D[:, :, 2])
        self._ftable = build_fundamental_table(cameras)
        # the id of the live target in each row of the state arrays
        self._ids: list[int] = []
        # the unmatched detections of each camera's newest frame in camera-id
        # order, and their epipolar matrix, None while stale since the last
        # addition
        self._pool: list[Detection] = []
        self._pool_a: np.ndarray | None = None
        # set while the pool is the one that last clustered into no group
        self._pool_idle = False
        self.K: int | None = None
        self._last_t: dict[str, float] = {}
        self._next_id = 0
        self._dt_sum = 0.0
        self._dt_count = 0
        self._ring = np.arange(self.cfg.velocity_window)

    # --------------------------------------------------------------- storage

    _ROW_ARRAYS = ("_joint", "_obs_xy", "_obs_dlt", "_obs_t", "_obs_conf",
                   "_hist", "_hist_n", "_last_match", "_built_by")

    def _alloc(self, K: int):
        """Room for 8 targets; _initialize_targets doubles it until its new
        rows fit and sets each of them up."""
        n, C, W = 8, len(self._cam_ids), self.cfg.velocity_window
        # per joint: point x, y, z, its time (NaN while unsolved), then the
        # velocity, which is zero whenever it is not valid
        self._joint = np.zeros((n, K, 7))
        self._obs_xy = np.zeros((n, K, C, 2))
        # each observation's two DLT rows r1, r2 as the flattened 4x4 block
        # r1 r1' + r2 r2', cached when the observation is written
        self._obs_dlt = np.zeros((n, K, C, 16))
        self._obs_t = np.zeros((n, K, C))  # -inf in a live row: never observed
        self._obs_conf = np.zeros((n, K, C))
        self._hist = np.zeros((n, K, W, 4))  # ring of (x, y, z, t) solutions
        self._hist_n = np.zeros((n, K), dtype=np.int64)
        self._last_match = np.zeros(n)
        # the cameras whose detections built the target, while no frame has
        # matched it since
        self._built_by = np.zeros((n, C), dtype=bool)
        self._flatten()

    def _flatten(self):
        """Views of the per-joint state arrays with one row per (target row,
        joint) pair, in the order of the flat indices row * K + joint that
        _observe and _solve use; taken again whenever the arrays are
        replaced."""
        C, W = len(self._cam_ids), self.cfg.velocity_window
        self._q_joint = self._joint.reshape(-1, 7)
        self._q_obs_xy = self._obs_xy.reshape(-1, C, 2)
        self._q_obs_dlt = self._obs_dlt.reshape(-1, C, 16)
        self._q_obs_t = self._obs_t.reshape(-1, C)
        self._q_obs_conf = self._obs_conf.reshape(-1, C)
        self._q_hist = self._hist.reshape(-1, W, 4)
        self._q_hist_n = self._hist_n.reshape(-1)

    # ------------------------------------------------------------- pipeline

    def step(self, frame: FrameBatch) -> StepResult:
        cid = frame.camera_id
        ci = self._cam_idx.get(cid)
        if ci is None:
            raise UnknownCamera(cid)
        t = frame.timestamp
        if not math.isfinite(t):
            raise ValueError(f"camera {cid!r} sent a frame at {t}")
        last = self._last_t.get(cid)
        if last is not None and t < last - EPS_CLOCK:
            raise ChronologyViolation(
                f"camera {cid!r} went back in time: {t} after {last}")
        # checked and stacked before any state changes, so that a frame that
        # raises leaves the tracker as it was
        dxy, dconf, dindex = frame.arrays()
        M = len(dindex)
        if M:
            k = dxy.shape[1]
            if self.K is None:
                self.K = k
                self._alloc(k)
            elif k != self.K:
                raise ValueError(f"joint count changed from {self.K} to {k}")
            dvm = _usable(dxy, dconf, self.cfg.min_joint_confidence)
            dindex = dindex.tolist()
        self._last_t[cid] = t if last is None else max(last, t)

        records = self._release_pool(cid, t) if self._pool else []

        accepted: list[tuple[int, int]] = []
        n_old = len(self._ids)
        if M and n_old:
            with np.errstate(all="ignore"):
                A = self._affinity_core(dxy, dvm, ci, t)
                # pairs below the threshold, NaN among them, are forbidden
                # before the solve, so none takes a detection that another
                # target accepts
                accepted = hungarian_max(np.where(A >= self.cfg.match_threshold, A, -np.inf))
                if accepted:
                    # a match confirms the target; each matched detection
                    # has a usable joint, as _affinity_core makes a pair
                    # without one impossible
                    rows, msel = np.array(accepted, dtype=np.intp).T
                    self._last_match[rows] = np.maximum(self._last_match[rows], t)
                    self._built_by[rows] = False
                    self._solve(self._observe(rows, msel, dxy, dconf, dvm, ci, t))
            ids = self._ids
            records += [AssignmentRecord(cid, t, dindex[c], ids[r]) for r, c in accepted]
        if len(accepted) < M:
            taken = {c for _, c in accepted}
            self._add_to_pool(cid, [Detection(cid, t, dxy[c], dconf[c], dindex[c])
                                    for c in range(M) if c not in taken])

        records.extend(self._initialize_targets())
        retired = self._retire(t, ci, n_old)
        # copies, as later steps change both in place
        return StepResult(cid, t, self._ids.copy(), self._points(), records, retired)

    def finish(self) -> list[AssignmentRecord]:
        """Flush pool leftovers as unmatched at end of stream."""
        records = [AssignmentRecord(d.camera_id, d.timestamp, d.index, None)
                   for d in self._pool]
        self._cut_pool([])
        return records

    @property
    def targets(self) -> list[TargetPose]:
        """The live targets in output order, as StepResult.poses gives them:
        views of a copy of the live rows, which later steps leave as it is."""
        return _pose_views(self._ids, self._points())

    @property
    def pool(self) -> dict[str, list[Detection]]:
        """The pool by camera id, in camera-id order; a fresh dict on each
        read, so changing it leaves the tracker as it was."""
        out: dict[str, list[Detection]] = {}
        for d in self._pool:
            out.setdefault(d.camera_id, []).append(d)
        return out

    def mean_collection_time_diff(self) -> float:
        """Mean staleness of the views feeding each incremental solve so far."""
        return self._dt_sum / self._dt_count if self._dt_count else 0.0

    # ------------------------------------------------------------- internals

    def _points(self) -> np.ndarray:
        """A copy of the live rows' points, (L, K, 4)."""
        return (np.zeros((0, 0, 4)) if self.K is None
                else self._joint[:len(self._ids), :, :4].copy())

    def _affinity_core(self, dxy: np.ndarray, dvm: np.ndarray, ci: int,
                       t: float) -> np.ndarray:
        """Vectorized body affinities, live targets x detections.

        NaN and inf stand for missing joints and impossible pairs, so callers
        run this under np.errstate(all="ignore"), as step does. A pair is
        impossible (-inf) when no usable joint has a term, as nothing then
        ties the detection to the target, or when the sum over the joints
        is not finite: a usable joint's score comes out NaN, from 0 * inf or
        inf / inf on far-off pixels or rays, or the sum overflows, as it can
        for a large w2d or w3d."""
        cfg = self.cfg
        L = len(self._ids)
        # unit back-projection rays of every detection joint (M, K, 3)
        u = dxy @ self._ray_xy[ci] + self._ray_1[ci]
        u /= np.sqrt(np.einsum("mki,mki->mk", u, u))[..., None]

        # 2D term against each target's last observation in this camera;
        # dt2 == 0 gives -inf for any pixel gap and, through 0 * inf, NaN
        # that becomes w2d for none
        pt = self._obs_t[:L, :, ci]  # (L, K); -inf where never observed
        dt2 = np.maximum(t - pt, 0.0)
        a2 = cfg.w2d * np.exp(-cfg.lambda_a * dt2)
        diff = self._obs_xy[:L, :, ci][:, None] - dxy
        s2 = a2[:, None] - (a2 / (cfg.alpha2d * dt2))[:, None] \
            * np.hypot(diff[..., 0], diff[..., 1])
        if not dt2.all():
            s2[np.isnan(s2)] = cfg.w2d
        has2 = (pt > -np.inf)[:, None] & dvm  # (L, M, K)
        A = np.where(has2, s2, 0.0)

        # 3D term: distance from the velocity-predicted point to each ray;
        # velocity is zero wherever it is not valid
        J = self._joint[:L]
        t3 = J[..., 3]
        dt3 = np.maximum(t - t3, 0.0)
        v = J[..., :3] + J[..., 4:] * dt3[..., None] - self._centers[ci]
        perp = v[:, None] - np.einsum("mki,lki->lmk", u, v)[..., None] * u
        a3 = cfg.w3d * np.exp(-cfg.lambda_a * dt3)
        s3 = a3[:, None] - (a3 / cfg.alpha3d)[:, None] \
            * np.sqrt(np.einsum("lmki,lmki->lmk", perp, perp))
        has3 = (t3 == t3)[:, None] & dvm
        A += np.where(has3, s3, 0.0)
        A = A.sum(axis=2)
        A[~(np.isfinite(A) & (has2 | has3).any(axis=2))] = -np.inf
        return A

    def _dlt_block(self, xy: np.ndarray, ci) -> np.ndarray:
        """r1 r1' + r2 r2', flattened to (n, 16), for the DLT rows
        r1 = x * p3 - p1 and r2 = y * p3 - p2 of points (n, 2) seen by
        camera ci, one index for all points or an (n,) array of one per
        point; the rows are scaled to unit length in weighted mode."""
        P = self._P[ci]  # (3, 4) or (n, 3, 4)
        r = xy[:, :, None] * P[..., 2:, :] - P[..., :2, :]  # (n, 2, 4)
        if self.weighted:
            r /= np.sqrt(np.einsum("nij,nij->ni", r, r))[:, :, None]
        return (np.ascontiguousarray(r.transpose(0, 2, 1)) @ r).reshape(-1, 16)

    def _observe(self, rows: np.ndarray, dets: np.ndarray, xy: np.ndarray,
                 conf: np.ndarray, vis: np.ndarray, ci, t) -> np.ndarray:
        """Store the usable joints vis (M, K) of detections dets (n,) among
        xy (M, K, 2), with confidences conf (M, K), as the newest
        observations of their target rows (n,) by camera ci at time t: one
        value each for a match, (n,) arrays of one per detection for a build.
        No two detections of a row come from one camera. Returns the joints
        written, as flat indices row * K + joint."""
        m, kq = vis[dets].nonzero()
        if isinstance(ci, np.ndarray):
            ci, t = ci[m], t[m]
        d = dets[m]
        q = rows[m] * self.K + kq
        pts = xy[d, kq]
        self._q_obs_xy[q, ci] = pts
        self._q_obs_dlt[q, ci] = self._dlt_block(pts, ci)
        self._q_obs_t[q, ci] = t
        self._q_obs_conf[q, ci] = conf[d, kq]
        return q

    def _solve(self, q: np.ndarray):
        """Triangulate the joints q, flat indices row * K + joint, from the
        newest point of each camera that saw them, minus those past the
        staleness horizon of the newest one, and store each answer at that
        one's time in the joint and the history ring; then refit the joint's
        velocity by least squares over its newest min(n, W) solutions, n
        being how many it has had. A joint left with fewer than two views,
        or whose answer is at infinity, keeps its state. Never-seen cameras
        have time -inf, so infinite age."""
        cfg = self.cfg
        W = self._ring.size
        ot = self._q_obs_t.take(q, axis=0)  # (Q, C)
        t_ref = ot.max(axis=1)
        age = t_ref[:, None] - ot
        keep = age <= cfg.retire_after
        nkeep = keep.sum(axis=1)
        if nkeep.min() < 2:
            solve = nkeep >= 2
            q, t_ref, age, keep, nkeep = (
                q[solve], t_ref[solve], age[solve], keep[solve], nkeep[solve])
            if q.size == 0:
                return
        age = np.where(keep, age, 0.0)
        # squared row weights; a row's weight is exp(-lambda_t * age), times
        # the observation's confidence when confidence weighting is on; the
        # rate meets the age first, so that a zero age gives weight 1 for
        # any finite lambda_t rather than -inf * 0
        if self.weighted:
            w2 = np.exp(-2.0 * (cfg.lambda_t * age)) * keep
            if cfg.confidence_weighting:
                w2 *= self._q_obs_conf.take(q, axis=0) ** 2
        else:
            w2 = keep.astype(float)
        # the weighted normal matrix sum_c w_c^2 (r1 r1' + r2 r2')_c
        dlt = self._q_obs_dlt.take(q, axis=0)
        AtA = (w2[:, None] @ dlt).reshape(-1, 4, 4)
        joint = self._q_joint
        X = triangulate(AtA, joint.take(q, axis=0)[:, :3])
        ok = X[:, 0] == X[:, 0]
        if not ok.all():
            q, t_ref, age, nkeep, X = q[ok], t_ref[ok], age[ok], nkeep[ok], X[ok]
            if q.size == 0:
                return
        # the solution and its time, as stored in both _joint and _hist
        x = np.concatenate([X, t_ref[:, None]], axis=1)
        self._dt_sum += float((age / nkeep[:, None]).sum())
        self._dt_count += q.size

        joint[q, :4] = x
        hist_n = self._q_hist_n
        n = hist_n.take(q)
        ring = self._q_hist
        ring[q, n % W] = x
        n += 1
        hist_n[q] = n
        if n.max() < 2:  # a first solution leaves the velocity zero, as set up
            return
        hist = ring.take(q, axis=0)  # (Q, W, 4)
        ts = hist[..., 3]
        if n.min() < W:  # ring entries past a young joint's n hold no sample
            n = np.minimum(n, W)[:, None]
            m = self._ring < n
            d = ts - np.where(m, ts, 0.0).sum(axis=1, keepdims=True) / n
            d *= m
        else:
            d = ts - ts.sum(axis=1, keepdims=True) / W
        # the centered times sum to zero, so their max is >= 0 >= their
        # min and the zeros past n do not change the span; the position
        # mean drops out of the regression numerator for the same reason
        valid = d.max(axis=1) - d.min(axis=1) >= 1e-3
        v = (d[:, None] @ hist[..., :3])[:, 0]
        v /= np.where(valid, np.einsum("qw,qw->q", d, d), np.inf)[:, None]
        joint[q, 4:] = v

    def _release_pool(self, cid: str, now: float) -> list[AssignmentRecord]:
        """Cut from the pool the previous entries of stepping camera cid and
        those of cameras silent for over retire_after, and report them
        unmatched: cid's first, then the others in camera-id order."""
        pool, last, horizon = self._pool, self._last_t, self.cfg.retire_after
        gone = [d.camera_id == cid or now - last[d.camera_id] > horizon for d in pool]
        if not any(gone):
            return []
        self._cut_pool([i for i, g in enumerate(gone) if not g])
        out = sorted((d for d, g in zip(pool, gone) if g), key=lambda d: d.camera_id != cid)
        return [AssignmentRecord(d.camera_id, d.timestamp, d.index, None) for d in out]

    def _cut_pool(self, keep: list[int]):
        """Keep only the pool entries at positions keep, in the list and the
        matrix alike; a cut matrix equals a fresh one, as each entry depends
        only on its pair."""
        pool = self._pool
        self._pool = [pool[i] for i in keep]
        self._pool_idle = False
        if self._pool_a is not None:
            self._pool_a = self._pool_a[keep][:, keep]

    def _add_to_pool(self, cid: str, dets: list[Detection]):
        """Splice camera cid's unmatched detections into the pool at the
        camera's place; the pool holds no entry of cid."""
        at = bisect_left(self._pool, cid, key=attrgetter("camera_id"))
        self._pool[at:at] = dets
        self._pool_a = None
        self._pool_idle = False

    def _initialize_targets(self) -> list[AssignmentRecord]:
        """Build targets from the pool's groups once it holds min_views_init
        entries from two cameras or more; a stale matrix is recomputed. A pool
        that clustered into no group is not clustered again until it changes,
        as the answer depends only on its matrix. All of the groups' targets
        are set up in one pass: fresh rows after the last in use, with the
        state arrays doubled until they fit, and every member's usable joints
        written by _observe, as a match writes them. Their joints are then
        solved as a match solves them, and a group left with no solved joint
        builds no target and stays in the pool."""
        pool = self._pool
        if self._pool_idle or len(pool) < self.cfg.min_views_init \
                or pool[0].camera_id == pool[-1].camera_id:
            return []
        stale = self._pool_a is None
        if stale:
            xy, conf, vis = stack_detections(pool, self.cfg.min_joint_confidence)
            cam = np.array([self._cam_idx[d.camera_id] for d in pool])
            self._pool_a = epipolar_affinity_matrix(xy, vis, cam, self._ftable, self.cfg)
        groups = cluster_pool(self._pool_a, self.cfg)
        if not groups:
            self._pool_idle = True
            return []
        if not stale:
            xy, conf, vis = stack_detections(pool, self.cfg.min_joint_confidence)
            cam = np.array([self._cam_idx[d.camera_id] for d in pool])
        L, n = len(self._ids), len(groups)
        while len(self._joint) < L + n:
            for name in self._ROW_ARRAYS:
                a = getattr(self, name)
                setattr(self, name, np.concatenate([a, np.zeros_like(a)]))
            self._flatten()
        # the new rows may hold retired targets' state; the history ring and
        # DLT blocks need no reset, as _hist_n and _obs_t mask them
        new = slice(L, L + n)
        self._joint[new, :, :4] = np.nan
        self._joint[new, :, 4:] = 0.0
        self._obs_xy[new] = 0.0
        self._obs_t[new] = -np.inf
        self._obs_conf[new] = 0.0
        self._hist_n[new] = 0
        self._built_by[new] = False
        # one detection per member, in group order, with its target's row
        members = [i for c in groups for i in c]
        sel = np.array(members)
        rows = np.repeat(np.arange(L, L + n), [len(c) for c in groups])
        cams = cam[sel]
        times = np.array([pool[i].timestamp for i in members])
        self._observe(rows, sel, xy, conf, vis, cams, times)
        self._last_match[new] = [max(pool[i].timestamp for i in c) for c in groups]
        self._built_by[rows, cams] = True
        self._solve(np.flatnonzero((self._obs_t[new] > -np.inf).any(axis=2)) + L * self.K)
        built = ~np.isnan(self._joint[L:L + n, :, 3]).all(axis=1)
        if not built.all():
            self._keep_rows(np.concatenate([np.arange(L), L + built.nonzero()[0]]))
            groups = [c for c, b in zip(groups, built) if b]
        ids = range(self._next_id, self._next_id + len(groups))
        self._next_id = ids.stop
        self._ids.extend(ids)
        records = [AssignmentRecord(pool[i].camera_id, pool[i].timestamp, pool[i].index, tid)
                   for tid, c in zip(ids, groups) for i in c]
        consumed = {i for c in groups for i in c}
        self._cut_pool([i for i in range(len(pool)) if i not in consumed])
        return records

    def _keep_rows(self, keep: np.ndarray):
        """Move the state rows keep, in order, to the top of the arrays."""
        for name in self._ROW_ARRAYS:
            a = getattr(self, name)
            a[:keep.size] = a[keep]

    def _retire(self, now: float, ci: int, n_old: int) -> list[int]:
        """Retire the targets unmatched for over retire_after and the
        unconfirmed ones that camera ci built among the first n_old rows,
        those built before this step; return their ids. The rows left move
        up in order, as row order is the output order and breaks Hungarian ties."""
        L = len(self._ids)
        if not L:
            return []
        last, built = self._last_match[:L], self._built_by[:n_old, ci]
        # now - x never rises as x grows, so when the oldest match is within
        # the horizon, all are
        if now - last.min() <= self.cfg.retire_after and not built.any():
            return []
        gone = now - last > self.cfg.retire_after
        gone[:n_old] |= built
        keep = (~gone).nonzero()[0]
        self._keep_rows(keep)
        ids = self._ids
        self._ids = [ids[r] for r in keep]
        return [ids[r] for r in gone.nonzero()[0]]
