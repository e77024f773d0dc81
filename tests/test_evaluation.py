"""Metric-layer checks: PCP arithmetic, association scoring, MOT counts,
and the subsampling sweep, each against hand-enumerated expectations."""

import numpy as np
import pytest

from posefuse.evaluation import (
    PART_EDGES,
    association_accuracy,
    framerate_sweep,
    mot_metrics,
    pcp,
    project_step_roots,
    run_tracker,
    subsample_stream,
)
from posefuse.simulator import ScenarioSpec, generate
from posefuse.tracker import AssignmentRecord

N_EDGES = sum(len(e) for e in PART_EDGES.values())


def tpose(dx=0.0, dy=0.0):
    """A standing skeleton with the canonical bone lengths, root at (dx, dy)."""
    p = np.zeros((14, 3))
    root = np.array([dx, dy, 0.95])
    neck = root + [0, 0, 0.55]
    p[1] = neck
    p[0] = neck + [0, 0, 0.25]
    p[2], p[3] = neck + [0.20, 0, 0], neck - [0.20, 0, 0]
    p[4], p[5] = p[2] - [0, 0, 0.30], p[3] - [0, 0, 0.30]
    p[6], p[7] = p[4] - [0, 0, 0.28], p[5] - [0, 0, 0.28]
    p[8], p[9] = root + [0.12, 0, 0], root - [0.12, 0, 0]
    p[10], p[11] = p[8] - [0, 0, 0.45], p[9] - [0, 0, 0.45]
    p[12], p[13] = p[10] - [0, 0, 0.45], p[11] - [0, 0, 0.45]
    return p


class FixedTruth:
    def __init__(self, frames):
        self.frames = dict(frames)

    def poses_at(self, t, tol=1e-6):
        return self.frames[t]


def test_pcp_perfect_estimates_score_100():
    truth = FixedTruth({0.0: {0: tpose(), 1: tpose(2.0)}})
    est = [(0.0, {7: tpose(), 9: tpose(2.0)})]
    rep = pcp(est, truth)
    assert rep.overall.score == 100.0
    assert rep.overall.total == 2 * N_EDGES
    for cell in rep.per_part.values():
        assert cell.score == 100.0
    for cell in rep.per_person.values():
        assert cell.score == 100.0


def test_pcp_threshold_arithmetic_on_one_bone():
    # lower arm bone is 0.28 m; only the wrist endpoint is displaced, so the
    # mean endpoint error is half the displacement against a 0.14 m threshold
    truth = FixedTruth({0.0: {0: tpose()}})
    for delta, ok in [(0.30, False), (0.26, True)]:
        bad = tpose()
        bad[6, 0] += delta
        rep = pcp([(0.0, {0: bad})], truth)
        assert rep.per_part["lower_arm"].correct == (2 if ok else 1)
        expect = N_EDGES if ok else N_EDGES - 1
        assert rep.overall.correct == expect


def test_pcp_unmatched_truth_person_counts_all_parts_wrong():
    truth = FixedTruth({0.0: {0: tpose(), 1: tpose(3.0)}})
    rep = pcp([(0.0, {0: tpose()})], truth)
    assert rep.per_person[0].score == 100.0
    assert rep.per_person[1].correct == 0
    assert rep.per_person[1].total == N_EDGES
    assert rep.overall.score == pytest.approx(50.0)


def test_pcp_skips_frames_without_estimates():
    truth = FixedTruth({0.0: {0: tpose()}, 1.0: {0: tpose()}})
    rep = pcp([(0.0, {}), (1.0, {0: tpose()})], truth)
    assert rep.overall.total == N_EDGES
    assert rep.overall.score == 100.0


def test_pcp_distant_estimate_stays_unmatched():
    truth = FixedTruth({0.0: {0: tpose()}})
    rep = pcp([(0.0, {0: tpose(0.6)})], truth)
    assert rep.overall.correct == 0


def test_pcp_matches_by_position_not_id():
    truth = FixedTruth({0.0: {0: tpose(), 1: tpose(2.0)}})
    rep = pcp([(0.0, {0: tpose(2.0), 1: tpose()})], truth)
    assert rep.overall.score == 100.0


def test_one_estimate_near_two_people_matches_only_the_nearer():
    truth = FixedTruth({0.0: {0: tpose(), 1: tpose(0.3)}})
    rep = pcp([(0.0, {5: tpose(0.1)})], truth)
    assert (rep.per_person[0].correct, rep.per_person[1].correct) == (N_EDGES, 0)
    rows = [({10: (0, 0)}, {0: (0, 0), 1: (20, 0)})] * 3
    s = mot_metrics({"c": frames_from(rows)}).per_camera["c"]
    assert (s.fp, s.fn, s.ids) == (0, 3, 0)


def test_pcp_nan_joint_fails_its_parts_only():
    est = tpose()
    est[6] = np.nan
    rep = pcp([(0.0, {0: est})], FixedTruth({0.0: {0: tpose()}}))
    assert rep.per_part["lower_arm"].correct == 1
    assert rep.overall.correct == N_EDGES - 1


def test_pcp_noise_never_helps():
    spec = ScenarioSpec(n_people=2, n_cameras=2, duration=4.0, seed=3)
    _, _, truth = generate(spec)
    frames = truth.pose_frames
    scores = []
    for sigma in (0.0, 0.05, 0.15, 0.40):
        acc = np.zeros(len(PART_EDGES))
        for seed in range(5):
            rng = np.random.default_rng(seed)
            est = [(t, {p: pose + rng.normal(0, sigma, pose.shape)
                        for p, pose in poses.items()})
                   for _, t, poses in frames]
            rep = pcp(est, truth)
            acc += [rep.per_part[p].score for p in PART_EDGES]
        scores.append(acc / 5)
    for lo, hi in zip(scores[1:], scores[:-1]):
        assert (lo <= hi + 1e-9).all()


def rec(cid, t, idx, tid):
    return AssignmentRecord(cid, t, idx, tid)


def test_association_perfect_clustering_is_100():
    det_person = {("a", 0.0, 0): 0, ("a", 0.0, 1): 1,
                  ("b", 0.1, 0): 1, ("b", 0.1, 1): 0}
    records = [rec("a", 0.0, 0, 10), rec("a", 0.0, 1, 11),
               rec("b", 0.1, 0, 11), rec("b", 0.1, 1, 10)]
    rep = association_accuracy(records, det_person)
    assert rep.per_camera == {"a": 100.0, "b": 100.0}
    assert rep.overall == 100.0


def test_association_all_unmatched_is_0():
    det_person = {("a", 0.0, 0): 0, ("a", 1.0, 0): 0}
    records = [rec("a", 0.0, 0, None), rec("a", 1.0, 0, None)]
    rep = association_accuracy(records, det_person)
    assert rep.per_camera == {"a": 0.0}
    assert rep.overall == 0.0


def test_association_minority_member_counts_as_error():
    det_person = {("a", 0.0, 0): 0, ("a", 1.0, 0): 0, ("a", 2.0, 0): 1}
    records = [rec("a", 0.0, 0, 5), rec("a", 1.0, 0, 5), rec("a", 2.0, 0, 5)]
    rep = association_accuracy(records, det_person)
    assert rep.per_camera["a"] == pytest.approx(100.0 * 2 / 3)


def frames_from(rows):
    # rows: per frame {est_id: (x, y)}, {true_id: (x, y)}
    return [({k: np.array(v, float) for k, v in est.items()},
             {k: np.array(v, float) for k, v in true.items()})
            for est, true in rows]


def test_mot_perfect_tracks():
    rows = [({10: (0, 0), 11: (100, 0)}, {0: (0, 0), 1: (100, 0)})] * 8
    rep = mot_metrics({"c": frames_from(rows)})
    s = rep.per_camera["c"]
    assert (s.fp, s.fn, s.ids) == (0, 0, 0)
    assert s.mota == 100.0
    assert s.idf1 == 100.0


def test_mot_one_mid_sequence_swap_costs_two_switches():
    a, b = (0, 0), (300, 0)
    rows = [({10: a, 11: b}, {0: a, 1: b})] * 5 \
        + [({11: a, 10: b}, {0: a, 1: b})] * 5
    s = mot_metrics({"c": frames_from(rows)}).per_camera["c"]
    assert s.ids == 2
    assert (s.fp, s.fn) == (0, 0)
    assert s.mota == pytest.approx(100.0 * (1 - 2 / 20))
    assert s.idf1 == pytest.approx(50.0)


def test_mot_empty_estimates_scores_zero():
    rows = [({}, {0: (0, 0)})] * 4
    s = mot_metrics({"c": frames_from(rows)}).per_camera["c"]
    assert s.fn == 4
    assert s.mota == 0.0
    assert s.idf1 == 0.0


def test_mot_far_estimate_is_both_fp_and_fn():
    rows = [({10: (500, 0)}, {0: (0, 0)})] * 3
    s = mot_metrics({"c": frames_from(rows)}).per_camera["c"]
    assert s.fp == 3 and s.fn == 3
    assert s.mota == pytest.approx(100.0 * (1 - 6 / 3))


def test_mot_fp_equals_fn_when_counts_match():
    rng = np.random.default_rng(0)
    rows = []
    for _ in range(30):
        true = {i: rng.uniform(0, 1000, 2) for i in range(3)}
        est = {i + 10: true[i] + rng.normal(0, 40, 2) for i in range(3)}
        rows.append((est, true))
    s = mot_metrics({"c": rows}).per_camera["c"]
    assert s.fp == s.fn


def small_scene(**kw):
    spec = ScenarioSpec(n_people=2, n_cameras=3, duration=5.0, seed=11, **kw)
    return generate(spec)


def test_end_to_end_noiseless_pcp_and_association_are_perfect():
    cams, frames, truth = small_scene()
    series, records, _ = run_tracker(cams, frames)
    est = [(t, poses) for _, t, poses in series]
    assert pcp(est, truth).overall.score == 100.0
    rep = association_accuracy(records, truth.det_person)
    assert set(rep.per_camera) == {c.id for c in cams}
    assert all(v == 100.0 for v in rep.per_camera.values())


def test_end_to_end_noiseless_mot_is_clean():
    cams, frames, truth = small_scene()
    series, _, _ = run_tracker(cams, frames)
    per_cam = project_step_roots(series, cams, truth)
    rep = mot_metrics(per_cam)
    for s in rep.per_camera.values():
        assert s.ids == 0
        assert s.mota > 95.0
    assert rep.overall.idf1 > 95.0


def test_subsample_keeps_every_nth_frame_per_camera():
    cams, frames, _ = small_scene()
    thin = subsample_stream(frames, 5)
    per_cam = {}
    for f in frames:
        per_cam.setdefault(f.camera_id, []).append(f)
    for cid, fs in per_cam.items():
        kept = [f for f in thin if f.camera_id == cid]
        assert [f.timestamp for f in kept] == [f.timestamp for f in fs[::5]]
    times = [f.timestamp for f in thin]
    assert times == sorted(times)


def test_framerate_sweep_staleness_grows_and_slow_scene_ties():
    cams, frames, truth = generate(ScenarioSpec(
        n_people=2, n_cameras=3, duration=5.0, seed=4,
        root_speed=0.05, swing_amplitude=0.05, swing_frequency=0.3))
    rows = framerate_sweep(cams, frames, truth, (1, 3, 6))
    assert [r.n for r in rows] == [1, 3, 6]
    dts = [r.mean_dt_weighted for r in rows]
    assert dts[0] < dts[1] < dts[2]
    assert abs(rows[0].pcp_weighted - rows[0].pcp_unweighted) <= 0.5
