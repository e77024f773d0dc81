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
from .assignment import filter_matches, hungarian_max, partition_cycle_consistent
from .geometry import CameraView, build_fundamental_table
from .reconstruction import UnknownCamera, triangulate


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
    its system, with an arbitrary sign. Inverse iteration runs three steps
    from the previous point X_prev (N, 3) on B, the system scaled to unit
    trace, multiplying by adj(B) = det(B) B^-1, which stays finite when B is
    singular, so no shift is needed. The answer counts as converged when the
    residual bound sin(angle to the true eigenvector) <= |Bx - rho x| /
    (l1 - rho) is below 1e-12, with rho = x'Bx >= l0 and the next eigenvalue
    l1 >= 4 det(B) / rho, which holds because l0 <= rho and
    l2 l3 <= (tr(B) / 2)^2 = 1/4. Noisy views leave l0 / l1 near 1e-3, where
    three steps end just short of the bound, so the systems with a finite
    X_prev that fail it get two more steps and the same test. Systems whose
    X_prev is not finite, and systems still unsettled, are solved by eigh.

    Returns the directions and a mask of the systems that inverse iteration
    settled.
    """
    N = AtA.shape[0]
    with np.errstate(all="ignore"):
        B = AtA / np.einsum("nii->n", AtA)[:, None, None]
        abc, L1, R1, L2, R2 = B.reshape(N, 16).T.take(_COFACTORS, axis=0)
        t = abc * (L1 * R1 - L2 * R2)
        adj = (t[0] - t[1] + t[2]).T.reshape(N, 4, 4)
        x = np.ones((N, 4, 1))
        x[:, :3, 0] = X_prev  # NaN rows stay NaN and fail the test below
        x = adj @ (adj @ (adj @ x))
        gap = 4.0 * np.einsum("nj,nj->n", B[:, 0], adj[:, 0])
        x, conv = _settled(B, x, gap)
        if not conv.all():
            more = np.flatnonzero(~conv & np.isfinite(X_prev).all(axis=1))
            if more.size:
                adj_m = adj[more]
                x_m, conv[more] = _settled(B[more], adj_m @ (adj_m @ x[more]),
                                           gap[more])
                x[more] = x_m
    x = x[:, :, 0]
    if not conv.all():
        cold = np.flatnonzero(~conv)
        x[cold] = np.linalg.eigh(AtA[cold])[1][:, :, 0]
    return x, conv


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


@dataclass
class FrameBatch:
    camera_id: str
    timestamp: float
    detections: list[Detection]


def stack_detections(dets: list[Detection], min_confidence: float):
    """Joints (M, K, 2), confidences (M, K) and the mask of usable joints:
    finite, with confidence at least min_confidence. Raises ValueError
    unless every detection has K joints and K confidences."""
    xy = np.array([d.joints for d in dets])
    conf = np.array([d.confidences for d in dets])
    if conf.shape != xy.shape[:2]:
        raise ValueError("a detection's confidences do not match its joints")
    return xy, conf, (conf >= min_confidence) & np.isfinite(xy).all(axis=2)


def cluster_pool(a: np.ndarray, P: np.ndarray, xy: np.ndarray, vis: np.ndarray,
                 cfg: TrackerConfig) -> list[tuple[list[int], np.ndarray]]:
    """Group detections from different cameras into people and triangulate
    each group: the association that builds new targets from the tracker's
    pool and that the per-frame baseline runs on every frame.

    a (N, N) is the detections' epipolar affinity matrix, P (N, 3, 4) holds
    the projection matrix of each one's camera, and xy (N, K, 2) and vis
    (N, K) are their joints and usable-joint mask from stack_detections.
    a is partitioned cycle-consistently, groups of fewer than min_views_init
    detections are dropped, and each remaining group is plain-triangulated
    joint by joint from the members whose joint is usable. Returns (member
    indices, (K, 3) pose with NaN rows for unsolved joints) for each group
    with at least one solved joint, in partition order. When every pair
    scores below 0 the partition is all singletons, which min_views_init >= 2
    drops, so it is not run.
    """
    n = len(a)
    if np.count_nonzero(a < 0) == n * (n - 1):  # the zero diagonal never counts
        return []
    found = []
    for c in partition_cycle_consistent(a, cfg.max_exact_partition).clusters():
        if len(c) < cfg.min_views_init:
            continue
        X = triangulate(P[c], xy[c], vis[c])
        if not np.isnan(X[:, 0]).all():
            found.append((c, X))
    return found


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
    camera_id: str
    timestamp: float
    poses: list[TargetPose]
    assignments: list[AssignmentRecord]
    retired: list[int]


class Target:
    """Handle onto a live target, whose row in the tracker's state arrays is
    slot; valid until the tracker's next step, which may move or retire it."""

    __slots__ = ("id", "slot", "_tr")

    def __init__(self, tr: "CrossViewTracker", target_id: int, slot: int):
        self.id = target_id
        self.slot = slot
        self._tr = tr

    @property
    def joint_xyz(self) -> np.ndarray:
        return self._tr._joint[self.slot, :, :3]

    @property
    def last_matched(self) -> float:
        return float(self._tr._last_match[self.slot])


class CrossViewTracker:
    """Fuses per-camera 2D pose streams into identity-stable 3D targets.

    weighted=False switches the incremental update from time-weighted to
    plain triangulation; initialization always uses the plain solve.
    """

    def __init__(self, cameras: list[CameraView], cfg: TrackerConfig | None = None,
                 weighted: bool = True):
        if not cameras:
            raise ValueError("need at least one camera")
        self.cfg = cfg or TrackerConfig()
        self.weighted = weighted
        self.cameras = {c.id: c for c in cameras}
        if len(self.cameras) != len(cameras):
            raise ValueError("duplicate camera id")
        self._cam_ids = [c.id for c in cameras]
        self._cam_idx = {cid: i for i, cid in enumerate(self._cam_ids)}
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
        """Room for 8 targets; _build_target doubles it when full and sets
        up each new row."""
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
        dets = frame.detections
        if dets:
            # checked and stacked before any state changes, so that a frame
            # that raises leaves the tracker as it was
            for d in dets:
                if d.camera_id != cid or d.timestamp != t:
                    raise ValueError(f"a detection in camera {cid!r}'s frame at {t} "
                                     f"carries camera {d.camera_id!r} and time {d.timestamp}")
            dxy, dconf, dvm = stack_detections(dets, self.cfg.min_joint_confidence)
            k = dxy.shape[1]
            if self.K is None:
                self.K = k
                self._alloc(k)
            elif k != self.K:
                raise ValueError(f"joint count changed from {self.K} to {k}")
        self._last_t[cid] = t if last is None else max(last, t)

        records = self._release_pool(cid, t) if self._pool else []

        accepted: list[tuple[int, int]] = []
        unmatched = list(range(len(dets)))
        n_old = len(self._ids)
        if dets and n_old:
            with np.errstate(all="ignore"):
                A = self._affinity_core(dxy, dvm, ci, t)
                thr = self.cfg.match_threshold
                pairs = hungarian_max(A)
                accepted, _, unmatched = filter_matches(pairs, A, thr)
                if len(accepted) < len(pairs):
                    # a pair below the threshold may hold a detection that
                    # another target accepts; solve again without such pairs.
                    # When every pair is accepted, the first solve is already
                    # the best one without them.
                    pairs = hungarian_max(np.where(A >= thr, A, -np.inf))
                    accepted, _, unmatched = filter_matches(pairs, A, thr)
                if accepted:
                    rc = np.array(accepted, dtype=np.intp)
                    self._update_matched(rc[:, 0], rc[:, 1], dxy, dconf, dvm, ci, t)
            for r, c in accepted:
                records.append(AssignmentRecord(cid, dets[c].timestamp,
                                                dets[c].index, self._ids[r]))
        if unmatched:
            self._add_to_pool(cid, [dets[c] for c in unmatched])

        records.extend(self._initialize_targets())
        retired = self._retire(t, ci, n_old)
        poses = []
        L = len(self._ids)
        if L:
            J = self._joint[:L].copy()  # a view would change under later steps
            poses = [TargetPose(tid, j[:, :3], j[:, 3]) for tid, j in zip(self._ids, J)]
        return StepResult(cid, t, poses, records, retired)

    def finish(self) -> list[AssignmentRecord]:
        """Flush pool leftovers as unmatched at end of stream."""
        records = [AssignmentRecord(d.camera_id, d.timestamp, d.index, None)
                   for d in self._pool]
        self._cut_pool([])
        return records

    @property
    def targets(self) -> list[Target]:
        """The live targets in output order; a fresh list of handles on each
        read, valid until the next step."""
        return [Target(self, tid, r) for r, tid in enumerate(self._ids)]

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

    def _affinity_core(self, dxy: np.ndarray, dvm: np.ndarray, ci: int,
                       t: float) -> np.ndarray:
        """Vectorized body affinities, live targets x detections.

        NaN and inf stand for missing joints and impossible pairs, so callers
        run this under np.errstate(all="ignore"), as step does. A pair is
        impossible (-inf) when no usable joint has a term, as nothing then
        ties the detection to the target, or when a usable joint's score
        comes out NaN, from 0 * inf or inf / inf on far-off pixels or rays."""
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
        # no term is ever +inf, so only a usable joint's NaN makes a sum NaN
        A = A.sum(axis=2)
        A[np.isnan(A) | ~(has2 | has3).any(axis=2)] = -np.inf
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

    def _update_matched(self, rows: np.ndarray, msel: np.ndarray, dxy: np.ndarray,
                        dconf: np.ndarray, dvm: np.ndarray, ci: int, t: float):
        """One batched state update covering every matched (target row,
        detection); a match confirms the target. Each matched detection has a
        usable joint, as _affinity_core makes a pair without one impossible.

        Runs under step's np.errstate(all="ignore")."""
        cfg = self.cfg
        self._last_match[rows] = np.maximum(self._last_match[rows], t)
        self._built_by[rows] = False
        p_i, kq = dvm[msel].nonzero()
        sq = rows[p_i]
        m_i = msel[p_i]
        xy = dxy[m_i, kq]
        self._obs_xy[sq, kq, ci] = xy
        self._obs_dlt[sq, kq, ci] = self._dlt_block(xy, ci)
        self._obs_t[sq, kq, ci] = t
        self._obs_conf[sq, kq, ci] = dconf[m_i, kq]

        # Each freshly seen joint is solved from this camera's point plus the
        # newest point from every other camera, minus anything past the
        # staleness horizon. Never-seen cameras have time -inf, so infinite age.
        ot = self._obs_t[sq, kq]  # (Q, C)
        t_ref = ot.max(axis=1)
        age = t_ref[:, None] - ot
        keep = age <= cfg.retire_after
        nkeep = keep.sum(axis=1)
        if nkeep.min() < 2:
            solve = nkeep >= 2
            sq, kq, t_ref, age, keep, nkeep = (
                sq[solve], kq[solve], t_ref[solve], age[solve], keep[solve],
                nkeep[solve])
            if sq.size == 0:
                return
        age = np.where(keep, age, 0.0)
        # squared row weights; a row's weight is exp(-lambda_t * age), times
        # the observation's confidence when confidence weighting is on
        if self.weighted:
            w2 = np.exp(-2.0 * cfg.lambda_t * age) * keep
            if cfg.confidence_weighting:
                w2 *= self._obs_conf[sq, kq] ** 2
        else:
            w2 = keep.astype(float)
        # the weighted normal matrix sum_c w_c^2 (r1 r1' + r2 r2')_c
        AtA = (w2[:, None] @ self._obs_dlt[sq, kq]).reshape(-1, 4, 4)
        x, _ = null_directions(AtA, self._joint[sq, kq, :3])
        ok = np.abs(x[:, 3]) >= 1e-12
        if not ok.all():
            sq, kq, t_ref, age, nkeep, x = (
                sq[ok], kq[ok], t_ref[ok], age[ok], nkeep[ok], x[ok])
            if sq.size == 0:
                return
        # the solution and its time, as stored in both _joint and _hist
        x[:, :3] /= x[:, 3:]
        x[:, 3] = t_ref
        self._dt_sum += float((age / nkeep[:, None]).sum())
        self._dt_count += sq.size

        self._joint[sq, kq, :4] = x
        n = self._hist_n[sq, kq]
        self._hist[sq, kq, n % self._ring.size] = x
        n += 1
        self._hist_n[sq, kq] = n
        self._refresh_velocity(sq, kq, n)

    def _refresh_velocity(self, sq: np.ndarray, kq: np.ndarray, n: np.ndarray):
        """Least-squares velocity over each joint's newest min(n, W) samples,
        n being how many solutions it has had."""
        hist = self._hist[sq, kq]  # (Q, W, 4)
        ts = hist[..., 3]
        W = self._ring.size
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
        self._joint[sq, kq, 4:] = v

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
        if self._pool_a is not None:
            self._pool_a = self._pool_a[keep][:, keep]

    def _add_to_pool(self, cid: str, dets: list[Detection]):
        """Splice camera cid's unmatched detections into the pool at the
        camera's place; the pool holds no entry of cid."""
        at = bisect_left(self._pool, cid, key=attrgetter("camera_id"))
        self._pool[at:at] = dets
        self._pool_a = None

    def _initialize_targets(self) -> list[AssignmentRecord]:
        """Build targets from the pool's groups once it holds min_views_init
        entries from two cameras or more, stacking the pool for the call; a
        stale matrix is recomputed."""
        pool = self._pool
        if len(pool) < self.cfg.min_views_init or pool[0].camera_id == pool[-1].camera_id:
            return []
        xy, conf, vis = stack_detections(pool, self.cfg.min_joint_confidence)
        cams = [d.camera_id for d in pool]
        if self._pool_a is None:
            self._pool_a = epipolar_affinity_matrix(xy, vis, cams, self._ftable, self.cfg)
        P = self._P[[self._cam_idx[c] for c in cams]]
        found = cluster_pool(self._pool_a, P, xy, vis, self.cfg)
        if not found:
            return []
        records: list[AssignmentRecord] = []
        for c, X in found:
            members = [pool[i] for i in c]
            tgt = self._build_target(members, X, (xy[c], conf[c], vis[c]))
            records.extend(AssignmentRecord(d.camera_id, d.timestamp, d.index, tgt.id)
                           for d in members)
        consumed = {i for c, _ in found for i in c}
        self._cut_pool([i for i in range(len(pool)) if i not in consumed])
        return records

    def _build_target(self, members: list[Detection], X: np.ndarray,
                      rows: tuple[np.ndarray, ...]) -> Target:
        """A new target in the row after the last, at the points X (K, 3),
        NaN where unsolved, holding every usable joint of its member
        detections as observations; rows are the members' (xy, conf, vis)
        from stack_detections."""
        t_ref = max(d.timestamp for d in members)
        s = len(self._ids)
        if s == len(self._joint):
            for name in self._ROW_ARRAYS:
                a = getattr(self, name)
                setattr(self, name, np.concatenate([a, np.zeros_like(a)]))
        # the row may hold a retired target's state; the history ring and
        # DLT blocks need no reset, as _hist_n and _obs_t mask them
        self._joint[s, :, :4] = np.nan
        self._joint[s, :, 4:] = 0.0
        self._obs_xy[s] = 0.0
        self._obs_t[s] = -np.inf
        self._obs_conf[s] = 0.0
        self._hist_n[s] = 0
        self._built_by[s] = False
        ks = (X[:, 0] == X[:, 0]).nonzero()[0]  # the solved joints
        self._joint[s, ks, :3] = X[ks]
        self._joint[s, ks, 3] = t_ref
        self._hist[s, ks, 0] = self._joint[s, ks, :4]
        self._hist_n[s, ks] = 1
        # one row per usable member joint; members come from distinct
        # cameras, so no two rows write the same observation
        xy, conf, vis = rows
        cams = [self._cam_idx[d.camera_id] for d in members]
        m, k = vis.nonzero()
        ci = np.array(cams)[m]
        pts = xy[m, k]
        self._obs_xy[s, k, ci] = pts
        self._obs_dlt[s, k, ci] = self._dlt_block(pts, ci)
        self._obs_t[s, k, ci] = np.array([d.timestamp for d in members])[m]
        self._obs_conf[s, k, ci] = conf[m, k]
        self._last_match[s] = t_ref
        self._built_by[s, cams] = True
        tgt = Target(self, self._next_id, s)
        self._next_id += 1
        self._ids.append(tgt.id)
        return tgt

    def _retire(self, now: float, ci: int, n_old: int) -> list[int]:
        """Retire the targets unmatched for over retire_after and the
        unconfirmed ones that camera ci built among the first n_old rows,
        those built before this step; return their ids. The rows left move
        up in order, as row order is the output order and breaks Hungarian ties."""
        L = len(self._ids)
        if not L:
            return []
        gone = now - self._last_match[:L] > self.cfg.retire_after
        gone[:n_old] |= self._built_by[:n_old, ci]
        if not gone.any():
            return []
        keep = (~gone).nonzero()[0]
        for name in self._ROW_ARRAYS:
            a = getattr(self, name)
            a[:keep.size] = a[keep]
        ids = self._ids
        self._ids = [ids[r] for r in keep]
        return [ids[r] for r in gone.nonzero()[0]]
