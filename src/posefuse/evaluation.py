"""Metrics comparing tracked 3D poses against scene ground truth.

Covers bone-level PCP, per-camera association accuracy over clustered 2D
detections, simplified MOT counts (root-distance matching, not the full
benchmark toolkit), and the frame-rate subsampling sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affinity import TrackerConfig
from .geometry import CameraView, project_points
from .tracker import AssignmentRecord, CrossViewTracker, FrameBatch

# part name -> skeleton edges (endpoint joint indices); torso is split into
# the two neck-to-hip edges so every part is a plain joint pair
PART_EDGES: dict[str, list[tuple[int, int]]] = {
    "head": [(0, 1)],
    "torso": [(1, 8), (1, 9)],
    "upper_arm": [(2, 4), (3, 5)],
    "lower_arm": [(4, 6), (5, 7)],
    "upper_leg": [(8, 10), (9, 11)],
    "lower_leg": [(10, 12), (11, 13)],
}

ROOT_JOINTS = (8, 9)  # hips; their mean is the MOT matching root
PCP_ALPHA = 0.5  # a correct part's error bound, as a fraction of its bone
MOT_THRESHOLD_PX = 50.0  # the farthest, in pixels, a matched root lies from its truth


@dataclass(frozen=True)
class PcpCell:
    correct: int
    total: int

    @property
    def score(self) -> float:
        return 100.0 * self.correct / self.total if self.total else 0.0


@dataclass(frozen=True)
class PcpReport:
    per_part: dict[str, PcpCell]
    per_person: dict[int, PcpCell]
    overall: PcpCell


@dataclass(frozen=True)
class AssociationReport:
    per_camera: dict[str, float]
    overall: float


@dataclass(frozen=True)
class MotCameraStats:
    mota: float
    idf1: float
    fp: int
    fn: int
    ids: int


@dataclass(frozen=True)
class MotReport:
    per_camera: dict[str, MotCameraStats]
    overall: MotCameraStats


@dataclass(frozen=True)
class SweepRow:
    n: int
    pcp_weighted: float
    pcp_unweighted: float
    mean_dt_weighted: float
    mean_dt_unweighted: float


def _greedy_match(est: dict[int, np.ndarray], true: dict[int, np.ndarray],
                  dist, thresh: float) -> dict[int, int]:
    """Greedy per-frame correspondence {person id: estimate id}.

    Candidate pairs have dist(estimate, truth) <= thresh and are taken in
    ascending (distance, person id, estimate id) order while both ends are
    free. dist returns NaN for a pair it cannot measure.
    """
    cands = sorted((d, pid, tid) for pid, tx in true.items()
                   for tid, ex in est.items() if (d := dist(ex, tx)) <= thresh)
    out: dict[int, int] = {}
    used = set()
    for _, pid, tid in cands:
        if pid in out or tid in used:
            continue
        out[pid] = tid
        used.add(tid)
    return out


def _mean_joint_error(ep: np.ndarray, tp: np.ndarray) -> float:
    """Mean distance over the joints finite in both poses; NaN if none are."""
    shared = np.isfinite(ep).all(axis=1) & np.isfinite(tp).all(axis=1)
    if not shared.any():
        return float("nan")
    return float(np.linalg.norm((ep - tp)[shared], axis=1).mean())


def _root_distance(ex: np.ndarray, tx: np.ndarray) -> float:
    return float(np.hypot(*(ex - tx)))


def pcp(estimates, truth) -> PcpReport:
    """Percentage of correct parts at threshold PCP_ALPHA x true bone length.

    estimates: iterable of (timestamp, {track_id: (K, 3) joints}).
    truth: object with poses_at(timestamp) -> {person_id: (K, 3)}.
    A part is correct when the mean distance of its two estimated endpoints
    to the true endpoints is within PCP_ALPHA times the true bone length. In
    a frame carrying any estimate, truth people left unmatched count every
    part as incorrect; frames with no estimates at all are skipped, so totals
    stay fixed under estimate noise but warm-up frames do not drag the score.
    """
    part_c = {p: 0 for p in PART_EDGES}
    part_t = {p: 0 for p in PART_EDGES}
    pers_c: dict[int, int] = {}
    pers_t: dict[int, int] = {}
    for t, est in estimates:
        if not est:
            continue
        true = truth.poses_at(t)
        matched = _greedy_match(est, true, _mean_joint_error, 0.5)
        for pid, tp in true.items():
            ep = est.get(matched.get(pid)) if pid in matched else None
            for part, edges in PART_EDGES.items():
                for a, b in edges:
                    part_t[part] += 1
                    pers_t[pid] = pers_t.get(pid, 0) + 1
                    if ep is None:
                        continue
                    if not (np.isfinite(ep[a]).all() and np.isfinite(ep[b]).all()):
                        continue
                    bone = np.linalg.norm(tp[a] - tp[b])
                    err = 0.5 * (np.linalg.norm(ep[a] - tp[a])
                                 + np.linalg.norm(ep[b] - tp[b]))
                    if err <= PCP_ALPHA * bone:
                        part_c[part] += 1
                        pers_c[pid] = pers_c.get(pid, 0) + 1
    per_part = {p: PcpCell(part_c[p], part_t[p]) for p in PART_EDGES}
    per_person = {pid: PcpCell(pers_c.get(pid, 0), pers_t[pid])
                  for pid in sorted(pers_t)}
    overall = PcpCell(sum(part_c.values()), sum(part_t.values()))
    return PcpReport(per_part, per_person, overall)


def association_accuracy(records: list[AssignmentRecord],
                         det_person: dict) -> AssociationReport:
    """Per-camera agreement between tracker clusters and true identities.

    A detection is correct when its (camera, target) cluster's majority true
    identity equals its own; unmatched detections always count as errors.
    Majority ties break toward the smallest person id.
    """
    clusters: dict[tuple[str, int], dict[int, int]] = {}
    for r in records:
        if r.target_id is None:
            continue
        pid = det_person[(r.camera_id, r.timestamp, r.index)]
        votes = clusters.setdefault((r.camera_id, r.target_id), {})
        votes[pid] = votes.get(pid, 0) + 1
    majority = {key: min((-n, pid) for pid, n in votes.items())[1]
                for key, votes in clusters.items()}
    good: dict[str, int] = {}
    tot: dict[str, int] = {}
    for r in records:
        tot[r.camera_id] = tot.get(r.camera_id, 0) + 1
        if r.target_id is None:
            continue
        pid = det_person[(r.camera_id, r.timestamp, r.index)]
        if majority[(r.camera_id, r.target_id)] == pid:
            good[r.camera_id] = good.get(r.camera_id, 0) + 1
    per_camera = {cid: 100.0 * good.get(cid, 0) / tot[cid] for cid in sorted(tot)}
    total = sum(tot.values())
    overall = 100.0 * sum(good.values()) / total if total else 0.0
    return AssociationReport(per_camera, overall)


def _mot_for_series(series) -> MotCameraStats:
    fp = fn = ids = n_truth = n_est = 0
    last_id: dict[int, int] = {}
    co: dict[tuple[int, int], int] = {}
    for est, true in series:
        # carried-over pairs stay matched while still within the threshold, so
        # a mere proximity of other tracks cannot flip an established identity
        kept = {}
        for pid, tx in true.items():
            tid = last_id.get(pid)
            if tid is not None and tid in est and tid not in kept.values() \
                    and _root_distance(est[tid], tx) <= MOT_THRESHOLD_PX:
                kept[pid] = tid
        rest_true = {p: x for p, x in true.items() if p not in kept}
        rest_est = {e: x for e, x in est.items() if e not in kept.values()}
        m = _greedy_match(rest_est, rest_true, _root_distance, MOT_THRESHOLD_PX)
        m.update(kept)
        fp += len(est) - len(m)
        fn += len(true) - len(m)
        n_truth += len(true)
        n_est += len(est)
        for pid, tid in m.items():
            if pid in last_id and last_id[pid] != tid:
                ids += 1
            last_id[pid] = tid
            co[(pid, tid)] = co.get((pid, tid), 0) + 1
    mota = 100.0 * (1.0 - (fp + fn + ids) / n_truth) if n_truth else 100.0
    # greedy global identity mapping on co-occurrence counts
    pairs = sorted(co.items(), key=lambda kv: (-kv[1], kv[0]))
    used_p, used_t = set(), set()
    idtp = 0
    for (pid, tid), n in pairs:
        if pid in used_p or tid in used_t:
            continue
        used_p.add(pid)
        used_t.add(tid)
        idtp += n
    denom = 2 * idtp + (n_est - idtp) + (n_truth - idtp)
    idf1 = 100.0 * 2 * idtp / denom if denom else 100.0
    return MotCameraStats(mota, idf1, fp, fn, ids)


def root_of(joints: np.ndarray) -> np.ndarray:
    """3D matching root: mean of the two hip joints (NaN if either missing)."""
    return joints[list(ROOT_JOINTS)].mean(axis=0)


def project_step_roots(step_series, cams: list[CameraView],
                       truth) -> dict[str, list]:
    """Build per-camera (estimate roots, truth roots) frame pairs.

    step_series: iterable of (camera_id, timestamp, {track_id: (K, 3)}).
    Estimated and true roots are projected into the step's own camera; people
    outside the image or behind the camera are dropped from the truth side so
    invisible people are not counted as misses.
    """
    cam_map = {c.id: c for c in cams}
    out: dict[str, list] = {c.id: [] for c in cams}
    for cid, t, est in step_series:
        cam = cam_map[cid]
        w, h = cam.image_size
        est_roots = {}
        for tid, joints in est.items():
            r3 = root_of(joints)
            if not np.isfinite(r3).all():
                continue
            uv, depth = project_points(cam, r3[None])
            if depth[0] > 0:
                est_roots[tid] = uv[0]
        true_roots = {}
        for pid, pose in truth.poses_at(t).items():
            uv, depth = project_points(cam, root_of(pose)[None])
            if depth[0] > 0 and 0 <= uv[0, 0] < w and 0 <= uv[0, 1] < h:
                true_roots[pid] = uv[0]
        out[cid].append((est_roots, true_roots))
    return out


def mot_metrics(per_camera_frames: dict[str, list]) -> MotReport:
    """Simplified MOT counts per camera from (estimates, truth) root frames.

    per_camera_frames: {camera_id: [(est {id: xy}, true {id: xy}), ...]}.
    FP counts unmatched estimates, FN unmatched truths, IDS per truth track
    whose matched estimate id changed; MOTA = 100*(1-(FP+FN+IDS)/truth count).
    IDF1 uses a greedy global mapping on match co-occurrence counts.
    """
    per_cam = {}
    pooled = []
    for cid in sorted(per_camera_frames):
        per_cam[cid] = _mot_for_series(per_camera_frames[cid])
        pooled.extend(per_camera_frames[cid])
    return MotReport(per_cam, _mot_for_series(pooled))


def run_tracker(cams: list[CameraView], frames: list[FrameBatch],
                cfg: TrackerConfig | None = None, weighted: bool = True):
    """Drive a fresh tracker over a stream.

    Returns (step_series, records, tracker) where step_series rows are
    (camera_id, timestamp, {target_id: (K, 3) joints}).
    """
    tracker = CrossViewTracker(cams, cfg, weighted=weighted)
    step_series = []
    records: list[AssignmentRecord] = []
    for f in frames:
        out = tracker.step(f)
        step_series.append((out.camera_id, out.timestamp,
                            {p.id: p.joints for p in out.poses}))
        records.extend(out.assignments)
    records.extend(tracker.finish())
    return step_series, records, tracker


def subsample_stream(frames: list[FrameBatch], n: int) -> list[FrameBatch]:
    """Keep every n-th frame of each camera, preserving global time order."""
    if n <= 1:
        return list(frames)
    count: dict[str, int] = {}
    kept = []
    for f in frames:
        i = count.get(f.camera_id, 0)
        count[f.camera_id] = i + 1
        if i % n == 0:
            kept.append(f)
    return kept


def framerate_sweep(cams: list[CameraView], frames: list[FrameBatch], truth,
                    n_values, cfg: TrackerConfig | None = None) -> list[SweepRow]:
    """PCP of weighted vs unweighted triangulation under input subsampling.

    For each n, every camera keeps one frame in n, and both tracker variants
    run over the thinned stream; rows also carry each run's mean staleness of
    the observation collections feeding its 3D solves.
    """
    rows = []
    for n in n_values:
        thin = subsample_stream(frames, n)
        scores = {}
        dts = {}
        for weighted in (True, False):
            series, _, tracker = run_tracker(cams, thin, cfg, weighted=weighted)
            est = [(t, poses) for _, t, poses in series]
            scores[weighted] = pcp(est, truth).overall.score
            dts[weighted] = tracker.mean_collection_time_diff()
        rows.append(SweepRow(n, scores[True], scores[False], dts[True], dts[False]))
    return rows
