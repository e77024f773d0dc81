"""Cross-view tracking loop: match, update, initialize, retire.

Targets live in 3-space and are updated one camera frame at a time; no
frame-level synchronization between cameras is assumed anywhere. All target
state sits in tracker-level arrays indexed by slot so that each step runs a
constant number of vectorized passes regardless of how many targets matched.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    finite, with confidence at least min_confidence."""
    xy = np.array([d.joints for d in dets])
    conf = np.array([d.confidences for d in dets])
    return xy, conf, (conf >= min_confidence) & np.isfinite(xy).all(axis=2)


class PoolScores:
    """The last epipolar matrix of a pool and the detections it scored.

    The detections are held as references, so their ids stay unique while
    they key the rows, and the memory is bounded by one pool.
    """

    __slots__ = ("_dets", "_row", "_matrix")

    def __init__(self):
        self.keep([], np.zeros((0, 0)))

    def keep(self, dets: list[Detection], matrix: np.ndarray):
        self._dets = dets
        self._row = {id(d): i for i, d in enumerate(dets)}
        self._matrix = matrix

    def lookup(self, dets: list[Detection]) -> np.ndarray | None:
        """The matrix of dets cut from the kept one, or None if it did not
        score all of them. Each entry depends only on its pair, and a pool
        lists its cameras in sorted order, so each pair keeps its
        orientation and the cut equals a fresh matrix."""
        row = self._row
        idx = [row.get(id(d), -1) for d in dets]
        if -1 in idx:
            return None
        return self._matrix[np.ix_(idx, idx)]


def cluster_pool(dets: list[Detection], cameras: dict[str, CameraView],
                 ftable: dict, cfg: TrackerConfig,
                 scores: PoolScores | None = None) -> list[tuple[list[int], np.ndarray]]:
    """Group detections from different cameras into people and triangulate
    each group: the association that builds new targets from the pool and
    that the per-frame baseline runs on every frame.

    The pool's epipolar affinity matrix is partitioned cycle-consistently,
    groups of fewer than min_views_init detections are dropped, and each
    remaining group is plain-triangulated joint by joint from the members
    whose joint is usable. Returns (member indices, (K, 3) pose with NaN
    rows for unsolved joints) for each group with at least one solved
    joint, in partition order.

    With scores given, the matrix is cut from the one kept there when that
    scored every detection, and otherwise computed and kept. When every
    pair scores below 0 the partition is all singletons, which
    min_views_init >= 2 drops, so it is not run.
    """
    if len(dets) < cfg.min_views_init:
        return []
    ids = [d.camera_id for d in dets]
    if len(set(ids)) < 2:
        return []
    a = scores.lookup(dets) if scores is not None else None
    xy = None
    if a is None:
        xy, _, vis = stack_detections(dets, cfg.min_joint_confidence)
        a = epipolar_affinity_matrix(xy, vis, ids, ftable, cfg)
        if scores is not None:
            scores.keep(dets, a)
    n = len(dets)
    if np.count_nonzero(a < 0) == n * (n - 1):  # the zero diagonal never counts
        return []
    part = partition_cycle_consistent(a, cfg.max_exact_partition)
    if xy is None:
        xy, _, vis = stack_detections(dets, cfg.min_joint_confidence)
    found = []
    for c in part.clusters():
        if len(c) < cfg.min_views_init:
            continue
        X = triangulate(np.stack([cameras[ids[i]].P for i in c]), xy[c], vis[c])
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
    """Handle onto one live slot of the tracker's state arrays.

    Valid while the target is live; a retired target's slot may be reused.
    """

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
        return float(self._tr._slot_last[self.slot])


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
        self._ftable = build_fundamental_table(cameras) if len(cameras) > 1 else {}
        self.targets: list[Target] = []
        self.pool: dict[str, list[Detection]] = {}
        self.K: int | None = None
        self._last_t: dict[str, float] = {}
        # id -> camera indices of the detections that built it, for each
        # target not yet matched since it was built
        self._unconfirmed: dict[int, frozenset[int]] = {}
        self._next_id = 0
        self._dt_sum = 0.0
        self._dt_count = 0
        self._cap = 0
        self._free: list[int] = []
        self._live = np.empty(0, dtype=np.intp)
        self._pool_scores = PoolScores()
        self._ring = np.arange(self.cfg.velocity_window)

    # --------------------------------------------------------------- storage

    _SLOT_ARRAYS = ("_joint", "_vel_ok", "_obs_xy", "_obs_dlt", "_obs_t",
                    "_obs_conf", "_hist", "_hist_n", "_slot_last")

    def _ensure_store(self, K: int):
        if self._cap:
            return
        self._alloc(8, K)

    def _alloc(self, cap: int, K: int):
        C, W = len(self._cam_ids), self.cfg.velocity_window
        # per joint: point x, y, z, its time (NaN while unsolved), then the
        # velocity, which is zero whenever it is not valid
        self._joint = np.zeros((cap, K, 7))
        self._joint[:, :, :4] = np.nan
        self._vel_ok = np.zeros((cap, K), dtype=bool)
        self._obs_xy = np.zeros((cap, K, C, 2))
        # each observation's two DLT rows r1, r2 as the flattened 4x4 block
        # r1 r1' + r2 r2', cached when the observation is written
        self._obs_dlt = np.zeros((cap, K, C, 16))
        self._obs_t = np.full((cap, K, C), -np.inf)  # -inf: never observed
        self._obs_conf = np.zeros((cap, K, C))
        self._hist = np.zeros((cap, K, W, 4))  # ring of (x, y, z, t) solutions
        self._hist_n = np.zeros((cap, K), dtype=np.int64)
        self._slot_last = np.zeros(cap)
        self._free = list(range(cap - 1, -1, -1))
        self._cap = cap

    def _grow(self):
        old = [getattr(self, name) for name in self._SLOT_ARRAYS]
        cap = self._cap
        self._alloc(cap * 2, self.K)
        for name, old_a in zip(self._SLOT_ARRAYS, old):
            getattr(self, name)[:cap] = old_a
        self._free = list(range(self._cap - 1, cap - 1, -1))

    def _alloc_slot(self) -> int:
        if not self._free:
            self._grow()
        s = self._free.pop()
        self._joint[s, :, :4] = np.nan
        self._joint[s, :, 4:] = 0.0
        self._vel_ok[s] = False
        self._obs_xy[s] = 0.0
        self._obs_t[s] = -np.inf
        self._obs_conf[s] = 0.0
        self._hist_n[s] = 0
        return s

    def _rebuild_live(self):
        self._live = np.array([tg.slot for tg in self.targets], dtype=np.intp)

    # ------------------------------------------------------------- pipeline

    def step(self, frame: FrameBatch) -> StepResult:
        cid = frame.camera_id
        ci = self._cam_idx.get(cid)
        if ci is None:
            raise UnknownCamera(cid)
        t = frame.timestamp
        last = self._last_t.get(cid)
        if last is not None and t < last - EPS_CLOCK:
            raise ChronologyViolation(
                f"camera {cid!r} went back in time: {t} after {last}")
        self._last_t[cid] = t if last is None else max(last, t)

        records: list[AssignmentRecord] = []
        for d in self.pool.pop(cid, []):
            records.append(AssignmentRecord(d.camera_id, d.timestamp, d.index, None))
        if self.pool:
            records.extend(self._age_pool(t))

        dets = frame.detections
        accepted: list[tuple[int, int]] = []
        unmatched = list(range(len(dets)))
        if dets:
            k = dets[0].joints.shape[0]
            if self.K is None:
                self.K = k
            elif k != self.K:
                raise ValueError(f"joint count changed from {self.K} to {k}")
            self._ensure_store(k)
            dxy, dconf, dvm = stack_detections(dets, self.cfg.min_joint_confidence)
        if dets and self.targets:
            with np.errstate(all="ignore"):
                A = self._affinity_core(dxy, dvm, ci, t)
                pairs = hungarian_max(A)
                accepted, _, unmatched = filter_matches(pairs, A,
                                                        self.cfg.match_threshold)
                if accepted:
                    rc = np.array(accepted, dtype=np.intp)
                    self._update_matched(self._live[rc[:, 0]], rc[:, 1], dxy, dconf,
                                         dvm, ci, t)
            for r, c in accepted:
                records.append(AssignmentRecord(cid, dets[c].timestamp,
                                                dets[c].index, self.targets[r].id))
        missed: set[int] = set()
        if self._unconfirmed:
            for r, _ in accepted:
                self._unconfirmed.pop(self.targets[r].id, None)
            # a camera that built a target has looked again and not seen it
            missed = {tid for tid, cams in self._unconfirmed.items() if ci in cams}
        if unmatched:
            self.pool[cid] = [dets[c] for c in unmatched]

        records.extend(self._initialize_targets())
        retired = self._retire(t, missed)
        poses = []
        if self.targets:
            J = self._joint[self._live]
            poses = [TargetPose(tg.id, J[i, :, :3], J[i, :, 3])
                     for i, tg in enumerate(self.targets)]
        return StepResult(cid, t, poses, records, retired)

    def _age_pool(self, now: float) -> list[AssignmentRecord]:
        """Drop the pool entries of cameras silent for over retire_after and
        report them unmatched."""
        records = []
        for c in sorted(self.pool):
            if now - self._last_t[c] > self.cfg.retire_after:
                for d in self.pool.pop(c):
                    records.append(AssignmentRecord(d.camera_id, d.timestamp,
                                                    d.index, None))
        return records

    def finish(self) -> list[AssignmentRecord]:
        """Flush pool leftovers as unmatched at end of stream."""
        records = []
        for cid in sorted(self.pool):
            for d in self.pool[cid]:
                records.append(AssignmentRecord(d.camera_id, d.timestamp, d.index, None))
        self.pool.clear()
        return records

    def mean_collection_time_diff(self) -> float:
        """Mean staleness of the views feeding each incremental solve so far."""
        return self._dt_sum / self._dt_count if self._dt_count else 0.0

    # ------------------------------------------------------------- internals

    def _affinity_core(self, dxy: np.ndarray, dvm: np.ndarray, ci: int,
                       t: float) -> np.ndarray:
        """Vectorized body affinities, live targets x detections.

        NaN and inf stand for missing joints and impossible pairs, so callers
        run this under np.errstate(all="ignore"), as step does."""
        cfg = self.cfg
        live = self._live
        # unit back-projection rays of every detection joint (M, K, 3)
        u = dxy @ self._ray_xy[ci] + self._ray_1[ci]
        u /= np.sqrt(np.einsum("mki,mki->mk", u, u))[..., None]

        # 2D term against each target's last observation in this camera;
        # dt2 == 0 gives -inf for any pixel gap and, through 0 * inf, NaN
        # that becomes w2d for none
        pt = self._obs_t[live, :, ci]  # (L, K); -inf where never observed
        dt2 = np.maximum(t - pt, 0.0)
        a2 = cfg.w2d * np.exp(-cfg.lambda_a * dt2)
        diff = self._obs_xy[live, :, ci][:, None] - dxy
        s2 = a2[:, None] - (a2 / (cfg.alpha2d * dt2))[:, None] \
            * np.hypot(diff[..., 0], diff[..., 1])
        if not dt2.all():
            s2[np.isnan(s2)] = cfg.w2d
        A = np.where((pt > -np.inf)[:, None] & dvm, s2, 0.0)

        # 3D term: distance from the velocity-predicted point to each ray;
        # velocity is zero wherever it is not valid
        J = self._joint[live]
        t3 = J[..., 3]
        dt3 = np.maximum(t - t3, 0.0)
        v = J[..., :3] + J[..., 4:] * dt3[..., None] - self._centers[ci]
        perp = v[:, None] - np.einsum("mki,lki->lmk", u, v)[..., None] * u
        a3 = cfg.w3d * np.exp(-cfg.lambda_a * dt3)
        s3 = a3[:, None] - (a3 / cfg.alpha3d)[:, None] \
            * np.sqrt(np.einsum("lmki,lmki->lmk", perp, perp))
        A += np.where((t3 == t3)[:, None] & dvm, s3, 0.0)
        return A.sum(axis=2)

    def _dlt_block(self, xy: np.ndarray, ci: int) -> np.ndarray:
        """r1 r1' + r2 r2', flattened to (n, 16), for the DLT rows
        r1 = x * p3 - p1 and r2 = y * p3 - p2 of points (n, 2) seen by
        camera ci; the rows are scaled to unit length in weighted mode."""
        P = self._P[ci]
        r = xy[:, :, None] * P[2] - P[:2]  # (n, 2, 4)
        if self.weighted:
            r /= np.sqrt(np.einsum("nij,nij->ni", r, r))[:, :, None]
        return (np.ascontiguousarray(r.transpose(0, 2, 1)) @ r).reshape(-1, 16)

    def _update_matched(self, sl: np.ndarray, msel: np.ndarray, dxy: np.ndarray,
                        dconf: np.ndarray, dvm: np.ndarray, ci: int, t: float):
        """One batched state update covering every matched (target, detection).

        Runs under step's np.errstate(all="ignore")."""
        cfg = self.cfg
        self._slot_last[sl] = np.maximum(self._slot_last[sl], t)
        p_i, kq = dvm[msel].nonzero()
        if p_i.size == 0:
            return
        sq = sl[p_i]
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
        self._vel_ok[sq, kq] = valid

    def _initialize_targets(self) -> list[AssignmentRecord]:
        items: list[Detection] = []
        for cid in sorted(self.pool):
            items.extend(self.pool[cid])
        records: list[AssignmentRecord] = []
        consumed: set[int] = set()
        for cluster, X in cluster_pool(items, self.cameras, self._ftable, self.cfg,
                                       self._pool_scores):
            tgt = self._build_target([items[i] for i in cluster], X)
            for i in cluster:
                d = items[i]
                records.append(AssignmentRecord(d.camera_id, d.timestamp, d.index, tgt.id))
                consumed.add(i)
        if consumed:
            kept: dict[str, list[Detection]] = {}
            for i, d in enumerate(items):
                if i not in consumed:
                    kept.setdefault(d.camera_id, []).append(d)
            self.pool = kept
        return records

    def _build_target(self, members: list[Detection], X: np.ndarray) -> Target:
        """A new target at the points X (K, 3), NaN where unsolved, holding
        every usable joint of its member detections as observations."""
        t_ref = max(d.timestamp for d in members)
        s = self._alloc_slot()
        ks = np.flatnonzero(~np.isnan(X[:, 0]))
        self._joint[s, ks, :3] = X[ks]
        self._joint[s, ks, 3] = t_ref
        self._hist[s, ks, 0] = self._joint[s, ks, :4]
        self._hist_n[s, ks] = 1
        xy, conf, vis = stack_detections(members, self.cfg.min_joint_confidence)
        for d, pts, c, v in zip(members, xy, conf, vis):
            ci = self._cam_idx[d.camera_id]
            self._obs_xy[s, v, ci] = pts[v]
            self._obs_dlt[s, v, ci] = self._dlt_block(pts[v], ci)
            self._obs_t[s, v, ci] = d.timestamp
            self._obs_conf[s, v, ci] = c[v]
        self._slot_last[s] = t_ref
        tgt = Target(self, self._next_id, s)
        self._next_id += 1
        self.targets.append(tgt)
        self._unconfirmed[tgt.id] = frozenset(self._cam_idx[d.camera_id]
                                              for d in members)
        self._rebuild_live()
        return tgt

    def _retire(self, now: float, missed: set[int]) -> list[int]:
        """Retire the targets unmatched for over retire_after and the
        unconfirmed targets in missed, returning their ids."""
        if not self.targets:
            return []
        lag = now - self._slot_last[self._live]
        if not missed and not lag.max() > self.cfg.retire_after:
            return []
        gone = []
        kept = []
        for tg, stale in zip(self.targets, lag > self.cfg.retire_after):
            if stale or tg.id in missed:
                gone.append(tg.id)
                self._free.append(tg.slot)
                self._unconfirmed.pop(tg.id, None)
            else:
                kept.append(tg)
        self.targets = kept
        self._rebuild_live()
        return gone
