"""Tracking loop behavior: match, update, initialize, retire, determinism.

Dual-route checks pin the vectorized hot paths to the scalar reference
implementations they must agree with.
"""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from posefuse import tracker as tracker_mod
from posefuse.affinity import ChronologyViolation, TrackerConfig, epipolar_affinity_matrix
from posefuse.assignment import partition_cycle_consistent
from posefuse.evaluation import mot_metrics, pcp, project_step_roots
from posefuse.io_cli import fmt_ts, iter_detections, write_detections
from posefuse.simulator import ScenarioSpec, generate
from posefuse.tracker import AssignmentRecord, CrossViewTracker, Detection, FrameBatch, \
    UnknownCamera, cluster_pool, null_directions, stack_detections

import oracles
from helpers import add_shifted_ghosts, make_camera
from oracles import (JointObservationSet, body_affinity, build_coefficients,
                     estimate_velocity, joint_state, triangulate_group,
                     triangulate_joint, triangulate_joint_weighted)


def run_stream(tracker, frames):
    records, retired = [], []
    for f in frames:
        r = tracker.step(f)
        records.extend(r.assignments)
        retired.extend(r.retired)
    records.extend(tracker.finish())
    return records, retired


def static_scene(n_people=1, n_cameras=4, duration=1.0, seed=3, **kw):
    pts = [((0.0, 0.0),), ((1.6, 0.9),), ((-1.5, 1.1),)][:n_people]
    spec = ScenarioSpec(n_people=n_people, n_cameras=n_cameras, duration=duration,
                        seed=seed, root_speed=0.0, swing_amplitude=0.0,
                        waypoints=tuple(pts), **kw)
    return generate(spec)


def mean_err(joints, truth_pose):
    d = np.linalg.norm(joints - truth_pose, axis=1)
    return float(np.nanmean(d))


def test_empty_frames_no_targets():
    cams, frames, _ = static_scene()
    tr = CrossViewTracker(cams)
    out = tr.step(FrameBatch(cams[0].id, 0.0, []))
    assert out.poses == [] and out.assignments == [] and out.retired == []
    assert tr.targets == []


def test_unknown_camera_rejected():
    cams, _, _ = static_scene()
    tr = CrossViewTracker(cams)
    with pytest.raises(UnknownCamera):
        tr.step(FrameBatch("nope", 0.0, []))


def test_same_camera_time_regression():
    cams, _, _ = static_scene()
    tr = CrossViewTracker(cams)
    cid = cams[0].id
    tr.step(FrameBatch(cid, 1.0, []))
    with pytest.raises(ChronologyViolation):
        tr.step(FrameBatch(cid, 0.99, []))
    # within the 1 ms clock tolerance is allowed and does not move time back
    tr.step(FrameBatch(cid, 1.0 - 5e-4, []))
    assert tr._last_t[cid] == 1.0


def test_static_person_one_round():
    cams, frames, truth = static_scene(n_cameras=4, duration=1.0)
    tr = CrossViewTracker(cams)
    for f in frames[:4]:  # one full camera round
        tr.step(f)
    assert len(tr.targets) == 1
    pose = truth.poses_at(frames[3].timestamp)[0]
    assert mean_err(tr.targets[0].joints, pose) <= 5e-3


def test_initialization_is_exact_noiseless():
    cams, frames, truth = static_scene(n_cameras=3)
    tr = CrossViewTracker(cams)
    out = tr.step(frames[0])
    assert tr.targets == [] and out.assignments == []
    out = tr.step(frames[1])  # second camera triggers clustering
    assert len(tr.targets) == 1
    pose = truth.poses_at(frames[0].timestamp)[0]
    assert mean_err(tr.targets[0].joints, pose) <= 1e-6
    got = {r.target_id for r in out.assignments}
    assert got == {tr.targets[0].id}


def test_initialized_targets_match_per_joint_oracle():
    cams, frames, _ = generate(ScenarioSpec(n_people=3, n_cameras=5, duration=2.0,
                                            seed=37, noise_sigma=2.0, dropout=0.15))
    by_id = {c.id: c for c in cams}
    # a seeded per-detection scale makes the confidences differ across views
    scale = np.random.default_rng(37)
    frames = [FrameBatch(f.camera_id, f.timestamp, [
        Detection(d.camera_id, d.timestamp, d.joints,
                  d.confidences * scale.uniform(0.5, 1.0), d.index)
        for d in f.detections]) for f in frames]
    # the weighted solve under both confidence settings, and the plain one
    for weighted, confidence_weighting in [(True, False), (True, True), (False, False)]:
        cfg = TrackerConfig(confidence_weighting=confidence_weighting)
        tr = CrossViewTracker(cams, cfg, weighted=weighted)
        checked = 0
        for f in frames:
            # the detections that the step may build targets from
            dets = {(d.camera_id, d.timestamp, d.index): d for d in
                    [d for ds in tr.pool.values() for d in ds] + f.detections}
            known = set(tr._ids)
            out = tr.step(f)
            for p in out.poses:
                if p.id in known:
                    continue
                members = [dets[r.camera_id, r.timestamp, r.index]
                           for r in out.assignments if r.target_id == p.id]
                want = triangulate_group(members, by_id, cfg.min_joint_confidence,
                                         cfg.lambda_t if weighted else None,
                                         confidence_weighting, cfg.retire_after)
                assert np.array_equal(np.isnan(p.joints), np.isnan(want))
                assert np.allclose(p.joints, want, atol=1e-9, equal_nan=True)
                # each joint at the time of its newest view
                assert all(t == max(d.timestamp for d in members
                                    if d.confidences[k] >= cfg.min_joint_confidence
                                    and np.isfinite(d.joints[k]).all())
                           for k, t in enumerate(p.joint_times) if t == t)
                checked += 1
        assert checked >= 3, (weighted, confidence_weighting)


def test_single_camera_never_initializes():
    cams, frames, _ = static_scene(n_cameras=1)
    tr = CrossViewTracker(cams)
    records, _ = run_stream(tr, frames)
    assert tr.targets == []
    assert all(r.target_id is None for r in records)
    assert len(records) == len(frames)


def test_two_people_two_cameras_no_mixed_cluster():
    cams, frames, truth = static_scene(n_people=2, n_cameras=2, duration=0.5)
    tr = CrossViewTracker(cams)
    records, _ = run_stream(tr, frames)
    assert len(tr.targets) == 2
    by_target = {}
    for r in records:
        if r.target_id is None:
            continue
        pid = truth.det_person[(r.camera_id, r.timestamp, r.index)]
        by_target.setdefault(r.target_id, set()).add(pid)
    assert all(len(pids) == 1 for pids in by_target.values())


def test_pool_holds_only_newest_frame():
    cams, frames, _ = static_scene(n_cameras=1)
    tr = CrossViewTracker(cams)
    out0 = tr.step(frames[0])
    assert out0.assignments == []  # pooled, not yet reported
    out1 = tr.step(frames[1])
    # the older unmatched detection is flushed as a None record on eviction
    assert [r.target_id for r in out1.assignments] == [None]
    assert out1.assignments[0].timestamp == frames[0].timestamp
    assert len(tr.pool[cams[0].id]) == 1


def lone_detection(cam_id, t, joints, index=0, K=14):
    """A detection that sees only the given joints, so two from cameras
    that see different joints share none and score -inf."""
    conf = np.zeros(K)
    conf[joints] = 1.0
    xy = np.full((K, 2), np.nan)
    xy[joints] = [[600.0 + 10 * k, 300.0 + 5 * k] for k in joints]
    return Detection(cam_id, t, xy, conf, index)


def test_pool_records_own_entries_then_aged_cameras_in_camera_order():
    cams = [make_camera(cid, c) for cid, c in [("a", (4.0, 0.0, 2.0)),
                                               ("b", (0.0, 4.0, 2.0)),
                                               ("c", (-4.0, 0.0, 2.0)),
                                               ("d", (0.0, -4.0, 2.0))]]
    seen = {"a": [0, 1, 2], "b": [3, 4, 5], "c": [6, 7, 8], "d": [9, 10, 11]}

    def frame(cid, t, n=1):
        return FrameBatch(cid, t, [lone_detection(cid, t, seen[cid], i) for i in range(n)])

    tr = CrossViewTracker(cams)
    for f in [frame("d", 0.0), frame("b", 0.1), frame("c", 0.3, 2), frame("a", 0.9)]:
        assert tr.step(f).assignments == []
    # at 1.2, c drops its old entries while d and b, silent for over
    # retire_after, age out and a stays
    out = tr.step(frame("c", 1.2))
    assert [(r.camera_id, r.timestamp, r.index, r.target_id) for r in out.assignments] \
        == [("c", 0.3, 0, None), ("c", 0.3, 1, None), ("b", 0.1, 0, None),
            ("d", 0.0, 0, None)]
    assert list(tr.pool) == ["a", "c"]
    out = tr.step(frame("b", 1.3, 2))
    assert out.assignments == [] and tr.targets == []
    assert [(r.camera_id, r.timestamp, r.index, r.target_id) for r in tr.finish()] \
        == [("a", 0.9, 0, None), ("b", 1.3, 0, None), ("b", 1.3, 1, None),
            ("c", 1.2, 0, None)]
    assert tr.pool == {} and tr.finish() == []


def test_layers_the_benchmark_times_are_called_through_the_module(monkeypatch):
    # the names the benchmark's span tracer rebinds in posefuse.tracker; a
    # layer called some other way would read 0 in its per-layer metrics
    spec = ScenarioSpec(n_people=3, n_cameras=6, rig="grid", duration=2.0, seed=2,
                        noise_sigma=1.0)
    cams, frames, _ = generate(spec)
    tr = CrossViewTracker(cams)
    calls = Counter()

    def counted(name):
        fn = getattr(tracker_mod, name)

        def wrapper(*args):
            calls[name] += 1
            if name == "epipolar_affinity_matrix":
                assert len(args[0]) == sum(len(ds) for ds in tr.pool.values())
            return fn(*args)
        return wrapper

    names = ["epipolar_affinity_matrix", "partition_cycle_consistent", "triangulate",
             "hungarian_max"]
    for name in names:
        monkeypatch.setattr(tracker_mod, name, counted(name))
    for f in add_shifted_ghosts(frames, spec.image_size, 0.5, seed=2):
        tr.step(f)
    assert all(calls[name] >= 1 for name in names), calls


def test_low_confidence_joints_never_recorded():
    cams, frames, _ = static_scene(n_cameras=2)
    tr = CrossViewTracker(cams)
    doctored = []
    for f in frames[:2]:
        ds = []
        for d in f.detections:
            conf = d.confidences.copy()
            conf[0] = 0.05  # below min_joint_confidence
            ds.append(Detection(d.camera_id, d.timestamp, d.joints, conf, d.index))
        doctored.append(FrameBatch(f.camera_id, f.timestamp, ds))
    for f in doctored:
        tr.step(f)
    assert len(tr.targets) == 1
    assert joint_state(tr, 0, 0).observations == {}
    assert np.isnan(tr.targets[0].joints[0]).all()
    assert joint_state(tr, 0, 1).observations != {}


def test_joint_count_change_rejected():
    cams, frames, _ = static_scene(n_cameras=2)
    tr = CrossViewTracker(cams)
    tr.step(frames[0])
    bad = Detection(frames[1].camera_id, frames[1].timestamp,
                    np.zeros((9, 2)), np.ones(9))
    with pytest.raises(ValueError):
        tr.step(FrameBatch(frames[1].camera_id, frames[1].timestamp, [bad]))


@pytest.mark.parametrize("case", ["joint-count", "mixed-joint-counts", "one-confidence",
                                  "inf-time", "nan-time", "other-camera", "other-time"])
def test_a_frame_that_raises_leaves_the_tracker_unchanged(case):
    cams, frames, _ = static_scene(n_cameras=3)
    first, rest = frames[0], frames[1:]
    cid, (det,) = first.camera_id, first.detections
    K = det.joints.shape[0]
    # later than the camera's next frame, so a clock moved by it would
    # reject that frame
    t = next(f.timestamp for f in rest if f.camera_id == cid) + 0.5
    short = Detection(cid, t, np.zeros((K - 1, 2)), np.ones(K - 1), 1)
    bad = FrameBatch(cid, *{
        "joint-count": (t, [short]),
        "mixed-joint-counts": (t, [Detection(cid, t, det.joints, det.confidences), short]),
        # one confidence would broadcast over all K joints
        "one-confidence": (t, [Detection(cid, t, det.joints, det.confidences[:1])]),
        "inf-time": (np.inf, [Detection(cid, np.inf, det.joints, det.confidences)]),
        "nan-time": (np.nan, [Detection(cid, np.nan, det.joints, det.confidences)]),
        # a detection must carry its frame's camera and time
        "other-camera": (t, [Detection(cams[1].id, t, det.joints, det.confidences)]),
        "other-time": (t, [Detection(cid, t - 0.1, det.joints, det.confidences)])}[case])

    def after_bad_frame():
        tr = CrossViewTracker(cams)
        tr.step(first)
        with pytest.raises(ValueError):
            tr.step(bad)
        return tr

    tr = after_bad_frame()
    assert tr._last_t == {cid: first.timestamp} and tr.K == K
    assert tr.finish() == [AssignmentRecord(cid, first.timestamp, 0, None)]
    tr, ref = after_bad_frame(), CrossViewTracker(cams)
    ref.step(first)
    for f in rest:
        out, want = tr.step(f), ref.step(f)
        assert out.assignments == want.assignments and out.retired == want.retired
        assert [(p.id, p.joints.tobytes()) for p in out.poses] \
            == [(p.id, p.joints.tobytes()) for p in want.poses]
    assert tr.finish() == ref.finish()


@pytest.mark.parametrize("blank", ["low-confidence", "no-joints"])
def test_a_detection_without_a_usable_joint_never_matches(blank):
    cams, frames, _ = static_scene(n_people=1, n_cameras=4, duration=1.0)
    tr = CrossViewTracker(cams)
    frames = iter(frames)
    while not tr.targets:
        tr.step(next(frames))
    (tg,), t0 = tr.targets, tr._last_match[0]
    built_by = tr._built_by[0].copy()
    assert built_by.any() and not built_by.all()  # unconfirmed
    # a camera that did not build the target sees a detection that nothing
    # ties to it: no joint above min_joint_confidence, or no joint at all
    cid = tr._cam_ids[int(np.flatnonzero(~built_by)[0])]
    det = next(d for f in frames if f.camera_id == cid for d in f.detections)
    joints, conf = {"low-confidence": (det.joints, np.full(tr.K, 0.05)),
                    "no-joints": (np.full((tr.K, 2), np.nan), np.ones(tr.K))}[blank]
    records = []
    # the target goes stale past retire_after by the second frame
    for t, retired in [(t0 + 0.5, []), (t0 + 1.1, [tg.id])]:
        out = tr.step(FrameBatch(cid, t, [Detection(cid, t, joints, conf)]))
        records.extend(out.assignments)
        assert out.retired == retired
        if not retired:
            assert out.ids == [tg.id]
            assert tr._last_match[0] == t0
            assert (tr._built_by[0] == built_by).all()
    records.extend(tr.finish())
    assert tr.targets == []
    assert [r.target_id for r in records if r.camera_id == cid] == [None, None]


@pytest.mark.parametrize("threshold, scores, matches, pooled", [
    # matching min(targets, detections) pairs gives [(0, 1), (1, 0)], both
    # below the threshold 0, so target 0 would lose the detection it accepts
    (0.0, [[1.0, -0.3], [-0.5, -np.inf]], [(0, 0)], [1]),
    (0.0, [[-0.1, -0.2], [-0.4, -0.3]], [], [0, 1]),
    # the unique optimum, off the diagonal, is accepted as it stands
    (0.0, [[0.2, 0.9], [0.8, 0.1]], [(1, 0), (0, 1)], []),
    (0.5, [[0.9, 0.2], [0.1, 0.3]], [(0, 0)], [1]),
], ids=["a-rival-below", "all-below", "off-diagonal", "threshold-0.5"])
def test_a_pair_below_the_threshold_never_takes_an_accepted_detection(
        threshold, scores, matches, pooled):
    # matches are (detection, target) positions, listed by target
    cams, frames, _ = static_scene(n_people=2, n_cameras=4, duration=1.0)
    tr = CrossViewTracker(cams, TrackerConfig(match_threshold=threshold))
    frames = iter(frames)
    while len(tr.targets) < 2:
        tr.step(next(frames))
    assert len(tr.targets) == 2
    frame = next(f for f in frames if len(f.detections) == 2)
    tr._affinity_core = lambda *args: np.array(scores)
    out = tr.step(frame)
    ids = [tg.id for tg in tr.targets]
    index = [d.index for d in frame.detections]
    matched = [(r.index, r.target_id) for r in out.assignments
               if (r.camera_id, r.timestamp) == (frame.camera_id, frame.timestamp)]
    assert matched == [(index[c], ids[r]) for c, r in matches]
    assert [d.index for d in tr.pool.get(frame.camera_id, [])] == [index[c] for c in pooled]


def test_poses_cover_all_live_targets_every_step():
    cams, frames, _ = static_scene(n_people=2, n_cameras=4, duration=1.0)
    tr = CrossViewTracker(cams)
    for f in frames:
        out = tr.step(f)
        assert out.camera_id == f.camera_id and out.timestamp == f.timestamp
        assert sorted(p.id for p in out.poses) == sorted(t.id for t in tr.targets)


def test_targets_are_the_steps_poses():
    spec = ScenarioSpec(n_people=3, n_cameras=4, duration=2.0, seed=23, noise_sigma=1.0)
    cams, frames, _ = generate(spec)
    tr = CrossViewTracker(cams)

    def frozen(poses):
        return [(p.id, p.joints.tobytes(), p.joint_times.tobytes()) for p in poses]

    retired = 0
    held = []  # the targets read after each step, with their bytes as read
    for f in add_shifted_ghosts(frames, spec.image_size, 1.0, seed=23):
        out = tr.step(f)
        retired += len(out.retired)
        targets = tr.targets
        assert frozen(targets) == frozen(out.poses)
        # a copy: later steps leave what was read as it was
        held.append((targets, frozen(targets)))
        assert all(frozen(ts) == want for ts, want in held)
    assert retired >= 5 and any(ts for ts, _ in held)


def test_solved_joints_have_two_cameras_of_support():
    spec = ScenarioSpec(n_people=2, n_cameras=4, duration=2.0, seed=5,
                        noise_sigma=1.0, dropout=0.15)
    cams, frames, _ = generate(spec)
    tr = CrossViewTracker(cams)
    for f in frames:
        tr.step(f)
    for r, tg in enumerate(tr.targets):
        for k in range(tr.K):
            if np.isfinite(tg.joints[k]).all():
                assert len(joint_state(tr, r, k).observations) >= 2


def test_retires_after_person_leaves():
    spec = ScenarioSpec(n_people=2, n_cameras=4, duration=4.0, seed=7)
    cams, frames, truth = generate(spec)
    cut = 2.0
    trimmed = []
    for f in frames:
        keep = [d for d in f.detections
                if not (f.timestamp > cut
                        and truth.det_person[(f.camera_id, f.timestamp, d.index)] == 1)]
        trimmed.append(FrameBatch(f.camera_id, f.timestamp, keep))
    tr = CrossViewTracker(cams)
    retired_at = {}
    for f in trimmed:
        out = tr.step(f)
        for tid in out.retired:
            retired_at[tid] = f.timestamp
    assert len(tr.targets) == 1
    assert len(retired_at) == 1
    period = 1.0 / spec.fps
    assert min(retired_at.values()) <= cut + tr.cfg.retire_after + 2 * period


def test_unconfirmed_target_retires_at_a_creating_cameras_next_frame():
    cams, frames, _ = static_scene(n_cameras=3)
    a, b, c = frames[:3]
    assert len({a.camera_id, b.camera_id, c.camera_id}) == 3
    tr = CrossViewTracker(cams)
    tr.step(a)
    tr.step(b)  # a's and b's detections build the target
    (tid,) = [tg.id for tg in tr.targets]
    # a camera that did not build it has not seen the person either way
    out = tr.step(FrameBatch(c.camera_id, c.timestamp, []))
    assert out.retired == [] and [p.id for p in out.poses] == [tid]
    # a camera that built it looks again and misses it; no target is stale,
    # which must not spare it
    t = c.timestamp + 0.01
    assert t - tr._last_match[0] <= tr.cfg.retire_after
    out = tr.step(FrameBatch(a.camera_id, t, []))
    assert out.retired == [tid]
    assert tr.targets == [] and out.poses == []


def test_matched_target_retires_only_after_retire_after():
    cams, frames, _ = static_scene(n_cameras=3)
    tr = CrossViewTracker(cams)
    tr.step(frames[0])
    tr.step(frames[1])
    out = tr.step(frames[2])  # the third camera confirms it
    (tg,) = tr.targets
    assert [r.target_id for r in out.assignments] == [tg.id]
    last = float(tr._last_match[0])
    ids = [c.id for c in cams]
    # the latest time at which the target is retire_after old, exactly
    edge = last + tr.cfg.retire_after
    while edge - last > tr.cfg.retire_after:
        edge = float(np.nextafter(edge, -np.inf))
    assert edge - last == tr.cfg.retire_after
    retired_at = None
    for j in range(1, 100):
        t = last + 0.02 * j
        if t > edge >= last + 0.02 * (j - 1):
            # at the edge it stays, and the next step, past it, retires it
            out = tr.step(FrameBatch(ids[(j + 1) % 3], edge, []))
            assert out.retired == [] and out.ids == [tg.id]
            out = tr.step(FrameBatch(ids[j % 3], t, []))
            assert out.retired == [tg.id]
        else:
            out = tr.step(FrameBatch(ids[j % 3], t, []))
        if out.retired:
            retired_at = t
            break
        assert t - last <= tr.cfg.retire_after
    assert out.retired == [tg.id] and tr.targets == []
    assert retired_at - last > tr.cfg.retire_after


def test_ghost_detections_leave_real_people_untouched():
    spec = ScenarioSpec(n_people=3, n_cameras=6, rig="grid", duration=3.0, seed=2)
    cams, frames, truth = generate(spec)
    ghosted = add_shifted_ghosts(frames, spec.image_size, 0.5, seed=2)
    assert sum(map(len, (f.detections for f in ghosted))) \
        > sum(map(len, (f.detections for f in frames))) + 100

    def run(stream):
        tr = CrossViewTracker(cams)
        rows, live, records = [], [], []
        for f in stream:
            out = tr.step(f)
            rows.append((f.timestamp, {p.id: p.joints for p in out.poses}))
            live.append(len(tr.targets))
            records.extend(out.assignments)
        return rows, live, records

    clean_rows, _, _ = run(frames)
    rows, live, records = run(ghosted)
    assert max(live) <= spec.n_people + 2
    assert pcp(rows, truth).overall.score == pcp(clean_rows, truth).overall.score
    series = [(cid, t, r[1]) for r, (cid, t, _) in zip(rows, truth.pose_frames)]
    assert mot_metrics(project_step_roots(series, cams, truth)).overall.ids == 0
    by_person = {}
    for r in records:
        pid = truth.det_person.get((r.camera_id, r.timestamp, r.index))
        if pid is not None and r.target_id is not None:
            by_person.setdefault(pid, set()).add(r.target_id)
    assert sorted(by_person) == [0, 1, 2]
    assert all(len(tids) == 1 for tids in by_person.values())


def frozen_state(js):
    """A joint_state answer as plain bytes and numbers, NaN included, so two
    answers compare equal only when they are bit for bit the same."""
    return (None if js.point is None else js.point.tobytes(),
            np.float64(js.point_time).tobytes(), js.velocity.tobytes(),
            {c: (xy.tobytes(), conf, t) for c, (xy, conf, t) in js.observations.items()},
            [(t, p.tobytes()) for t, p in js.history])


def test_retiring_keeps_each_survivors_state_and_earlier_poses():
    spec = ScenarioSpec(n_people=5, n_cameras=6, duration=3.0, seed=3, noise_sigma=2.0)
    cams, frames, _ = generate(spec)
    tr = CrossViewTracker(cams)
    returned = []  # each pose handed out, with copies of its arrays as returned
    kept = moved = 0
    for f in add_shifted_ghosts(frames, spec.image_size, 1.0, seed=3):
        # every row array's live rows before the step, readable by joint_state
        rows = {tg.id: r for r, tg in enumerate(tr.targets)}
        snap = SimpleNamespace(_cam_ids=tr._cam_ids, **{
            name: getattr(tr, name)[:len(rows)].copy()
            for name in tr._ROW_ARRAYS if rows})
        out = tr.step(f)
        ids = [tg.id for tg in tr.targets]
        assert [p.id for p in out.poses] == ids == sorted(ids)
        matched = {r.target_id for r in out.assignments}
        # on a step that retires, each older target it did not match keeps
        # its state, whether its row moved up or not
        survivors = [(r, tid) for r, tid in enumerate(ids)
                     if tid in rows and tid not in matched]
        for r, tid in survivors if out.retired else []:
            was = rows[tid]
            moved += r != was
            for name in tr._ROW_ARRAYS:
                assert getattr(tr, name)[r].tobytes() \
                    == getattr(snap, name)[was].tobytes(), name
            for k in range(tr.K):
                assert frozen_state(joint_state(tr, r, k)) \
                    == frozen_state(joint_state(snap, was, k))
            kept += 1
        returned.extend((p, p.joints.copy(), p.joint_times.copy()) for p in out.poses)
        assert all(p.joints.tobytes() == xyz.tobytes() and p.joint_times.tobytes()
                   == ts.tobytes() for p, xyz, ts in returned)
    # survivors moved up past a retired row, not only rows cut from the end
    assert kept >= 20 and moved >= 5


def test_silent_cameras_pool_entries_age_out():
    spec = ScenarioSpec(n_people=2, n_cameras=4, duration=3.0, seed=5)
    cams, frames, _ = generate(spec)
    dead = cams[0].id
    # the camera that stops also sees ghosts, which no other view can explain
    # and so stay in the pool
    frames = [f for f in frames if f.camera_id != dead or f.timestamp <= 1.0]
    ghosted = iter(add_shifted_ghosts([f for f in frames if f.camera_id == dead],
                                      spec.image_size, 2.0, seed=5))
    frames = [next(ghosted) if f.camera_id == dead else f for f in frames]
    tr = CrossViewTracker(cams)
    reported = Counter()
    aged = 0
    for f in frames:
        out = tr.step(f)
        reported.update((r.camera_id, r.timestamp, r.index) for r in out.assignments)
        aged += sum(r.camera_id == dead and r.target_id is None
                    for r in out.assignments if f.camera_id != dead)
        for ds in tr.pool.values():
            assert all(f.timestamp - d.timestamp <= tr.cfg.retire_after for d in ds)
    tail = tr.finish()
    assert aged > 0 and all(r.camera_id != dead for r in tail)
    reported.update((r.camera_id, r.timestamp, r.index) for r in tail)
    assert set(reported.values()) == {1}
    assert sorted(reported) == sorted((f.camera_id, f.timestamp, d.index)
                                      for f in frames for d in f.detections)


def test_a_rig_listed_out_of_camera_id_order_tracks_the_same():
    """The tracker indexes its state and its fundamental matrices by each
    camera's position in the rig it is given, and orders its pool by camera
    id. Listing the rig in reverse id order may change only the order in
    which each solve sums its views."""
    spec = ScenarioSpec(n_people=3, n_cameras=6, rig="grid", duration=2.0, seed=2,
                        noise_sigma=1.0)
    cams, frames, _ = generate(spec)
    want, got = CrossViewTracker(cams), CrossViewTracker(cams[::-1])
    for f in add_shifted_ghosts(frames, spec.image_size, 0.5, seed=2):
        w, g = want.step(f), got.step(f)
        assert g.ids == w.ids and g.retired == w.retired
        assert g.assignments == w.assignments
        assert np.allclose(g.points, w.points, atol=1e-9, equal_nan=True)
    assert got.finish() == want.finish()
    assert want._next_id >= 10


def ghost_scene():
    """A 6-camera grid with shifted ghosts, whose frames carry their times as
    the detection files write them, so that they survive a round trip."""
    spec = ScenarioSpec(n_people=3, n_cameras=6, rig="grid", duration=2.0, seed=2,
                        noise_sigma=1.0)
    cams, frames, _ = generate(spec)
    frames = [FrameBatch(f.camera_id, float(fmt_ts(f.timestamp)), [
        Detection(d.camera_id, float(fmt_ts(d.timestamp)), d.joints, d.confidences,
                  d.index) for d in f.detections])
        for f in add_shifted_ghosts(frames, spec.image_size, 0.5, seed=2)]
    return cams, frames


def test_list_built_and_parsed_frames_track_alike(tmp_path):
    cams, listed = ghost_scene()
    path = str(tmp_path / "detections.jsonl")
    write_detections(listed, path)
    with open(path, encoding="utf-8") as f:
        parsed = list(iter_detections(f, path))
    want, got = CrossViewTracker(cams), CrossViewTracker(cams)
    for a, b in zip(listed, parsed, strict=True):
        w, g = want.step(a), got.step(b)
        assert g.ids == w.ids and g.retired == w.retired
        assert g.assignments == w.assignments
        assert g.points.tobytes() == w.points.tobytes()
    assert got.finish() == want.finish()
    assert want._next_id >= 10


def test_records_carry_a_list_built_frames_own_indices():
    cams, frames = ghost_scene()

    def label(i):
        return 1000 - 7 * i

    relabelled = [FrameBatch(f.camera_id, f.timestamp, [
        Detection(d.camera_id, d.timestamp, d.joints, d.confidences, label(d.index))
        for d in f.detections]) for f in frames]
    want, got = CrossViewTracker(cams), CrossViewTracker(cams)
    kinds = Counter()
    for a, b in zip(frames, relabelled):
        w, g = want.step(a), got.step(b)
        assert g.assignments == [AssignmentRecord(r.camera_id, r.timestamp, label(r.index),
                                                  r.target_id) for r in w.assignments]
        assert [d.index for ds in got.pool.values() for d in ds] == \
            [label(d.index) for ds in want.pool.values() for d in ds]
        kinds.update(r.target_id is None for r in w.assignments)
    tail = want.finish()
    assert tail and got.finish() == [AssignmentRecord(r.camera_id, r.timestamp,
                                                      label(r.index), None) for r in tail]
    # records of matched or built targets, and of released pool entries
    assert kinds[False] > 100 and kinds[True] > 100


def test_pool_matrix_equals_a_fresh_epipolar_matrix_at_every_step(monkeypatch):
    spec = ScenarioSpec(n_people=3, n_cameras=6, rig="grid", duration=2.0, seed=2,
                        noise_sigma=1.0)
    cams, frames, _ = generate(spec)
    tr = CrossViewTracker(cams)
    counts = Counter()

    def fresh_matrix():
        dets = [d for ds in tr.pool.values() for d in ds]
        if not dets:
            return np.zeros((0, 0))
        xy, _, vis = stack_detections(dets, tr.cfg.min_joint_confidence)
        cam = np.array([tr._cam_idx[d.camera_id] for d in dets])
        a = epipolar_affinity_matrix(xy, vis, cam, tr._ftable, tr.cfg)
        counts["-inf"] += bool(np.isneginf(a).any())
        return a

    def checked_epipolar(*args):
        counts["recompute"] += 1
        return epipolar_affinity_matrix(*args)

    def checked_partition(a, max_exact):
        assert (a == fresh_matrix()).all()
        counts["partition"] += 1
        return partition_cycle_consistent(a, max_exact)

    def checked_cluster_pool(a, cfg):
        assert (a == fresh_matrix()).all()
        counts["cluster"] += 1
        return cluster_pool(a, cfg)

    monkeypatch.setattr(tracker_mod, "epipolar_affinity_matrix", checked_epipolar)
    monkeypatch.setattr(tracker_mod, "partition_cycle_consistent", checked_partition)
    monkeypatch.setattr(tracker_mod, "cluster_pool", checked_cluster_pool)
    for f in add_shifted_ghosts(frames, spec.image_size, 0.5, seed=2):
        kept, recomputed = tr._pool_a is not None, counts["recompute"]
        tr.step(f)
        if tr._pool_a is not None:
            # a matrix kept across the step without a recompute was cut
            counts["reuse"] += kept and counts["recompute"] == recomputed
            assert (tr._pool_a == fresh_matrix()).all()
    assert counts["reuse"] >= 1 and counts["recompute"] >= 1
    assert counts["partition"] >= 1 and counts["-inf"] >= 1
    assert counts["cluster"] >= counts["partition"]


class AlwaysClustering(CrossViewTracker):
    """A tracker that clusters its pool whenever it is large enough, never
    knowing that the same pool found no group before."""

    _pool_idle = property(lambda self: False, lambda self, idle: None)


def test_an_unchanged_pool_is_clustered_once(monkeypatch):
    spec = ScenarioSpec(n_people=3, n_cameras=6, rig="grid", duration=2.0, seed=2,
                        noise_sigma=1.0)
    cams, frames, _ = generate(spec)
    frames = add_shifted_ghosts(frames, spec.image_size, 0.5, seed=2)

    def run(tr):
        """Each step's outcome, the end-of-stream records, and each
        cluster_pool call's pool with whether it found a group."""
        calls = []

        def spy(a, cfg):
            groups = cluster_pool(a, cfg)
            calls.append(([(d.camera_id, d.timestamp, d.index) for d in tr._pool],
                          bool(groups)))
            return groups

        monkeypatch.setattr(tracker_mod, "cluster_pool", spy)
        return [tr.step(f) for f in frames], tr.finish(), calls

    got, got_tail, got_calls = run(CrossViewTracker(cams))
    want, want_tail, every = run(AlwaysClustering(cams))
    # one call per distinct pool: a call is left out only where the call
    # before it saw the same pool and found no group
    once = [c for i, c in enumerate(every)
            if not (i and every[i - 1] == (c[0], False))]
    assert got_calls == once
    assert len(every) - len(once) >= 10 and any(g for _, g in once)
    for g, w in zip(got, want, strict=True):
        assert g.ids == w.ids and g.retired == w.retired
        assert g.assignments == w.assignments
        assert np.array_equal(g.points, w.points, equal_nan=True)
    assert got_tail == want_tail


def check_builds(monkeypatch) -> list[list[int]]:
    """Make every _initialize_targets call check each row it builds against
    a per-member write: the usable joints of each member detection as its
    camera's observations, -inf times and zeros elsewhere, the DLT block of
    each observation, the members' cameras as the builders and the newest
    member's time as the last match. Returns the list that each call that
    builds targets appends its new targets' member counts to."""
    init = CrossViewTracker._initialize_targets
    built = []

    def checked_init(self):
        pool = {(d.camera_id, d.timestamp, d.index): d for d in self._pool}
        L = len(self._ids)
        records = init(self)
        K, C = self.K, len(self._cam_ids)
        sizes = []
        for r, tid in enumerate(self._ids[L:], L):
            members = [pool[a.camera_id, a.timestamp, a.index] for a in records
                       if a.target_id == tid]
            xy, t = np.zeros((K, C, 2)), np.full((K, C), -np.inf)
            conf, by = np.zeros((K, C)), np.zeros(C, dtype=bool)
            for d in members:
                ci = self._cam_idx[d.camera_id]
                v = (d.confidences >= self.cfg.min_joint_confidence) \
                    & np.isfinite(d.joints).all(axis=1)
                xy[v, ci] = d.joints[v]
                t[v, ci] = d.timestamp
                conf[v, ci] = d.confidences[v]
                by[ci] = True
                assert (self._obs_dlt[r, v, ci]
                        == oracles.dlt_block(self._P[ci], d.joints[v], self.weighted)).all()
            assert (self._obs_xy[r] == xy).all() and (self._obs_t[r] == t).all()
            assert (self._obs_conf[r] == conf).all() and (self._built_by[r] == by).all()
            assert self._last_match[r] == max(d.timestamp for d in members)
            sizes.append(len(members))
        if sizes:
            built.append(sizes)
        return records

    monkeypatch.setattr(CrossViewTracker, "_initialize_targets", checked_init)
    return built


@pytest.mark.parametrize("weighted, min_views_init", [(True, 2), (False, 2), (True, 3)])
def test_built_targets_hold_what_a_per_member_write_gives(monkeypatch, weighted,
                                                          min_views_init):
    spec = ScenarioSpec(n_people=3, n_cameras=6, rig="grid", duration=2.0, seed=4,
                        noise_sigma=1.0, dropout=0.1)
    cams, frames, _ = generate(spec)
    tr = CrossViewTracker(cams, TrackerConfig(min_views_init=min_views_init),
                          weighted=weighted)
    built = check_builds(monkeypatch)
    for f in add_shifted_ghosts(frames, spec.image_size, 0.5, seed=4):
        tr.step(f)
    # some call builds several targets at once, and the smallest group has
    # min_views_init members
    assert sum(map(len, built)) >= 3 and max(map(len, built)) >= 2
    assert min(map(min, built)) == min_views_init


def test_one_build_that_grows_the_state_arrays_twice(monkeypatch):
    # 17 people seen by 3 cameras: the third camera's frame builds a target
    # for each, into state arrays with room for 8
    pts = tuple(((x, y),) for x in np.linspace(-2.0, 2.0, 5)
                for y in np.linspace(-2.0, 2.0, 4))[:17]
    cams, frames, _ = generate(ScenarioSpec(n_people=17, n_cameras=3, duration=0.2, seed=1,
                                            root_speed=0.0, swing_amplitude=0.0,
                                            waypoints=pts))
    tr = CrossViewTracker(cams, TrackerConfig(min_views_init=3))
    built = check_builds(monkeypatch)
    for f in frames[:2]:
        assert tr.step(f).ids == [] and len(tr._joint) == 8
    out = tr.step(frames[2])
    assert built == [[3] * 17] and len(tr._joint) == 32
    assert out.ids == list(range(17))


def vanishing_point(cam, ray_cam, xy) -> np.ndarray:
    """The pixel at which cam sees the direction of ray_cam's ray through
    pixel xy: a ray of cam through it is parallel to that one, and it lies on
    that ray's epipolar line in cam."""
    p = cam.P @ np.append(oracles.back_project(ray_cam, xy).direction, 0.0)
    return p[:2] / p[2]


def with_joint_at(frame, k, xy):
    """frame with joint k of its one detection moved to pixel xy."""
    (d,) = frame.detections
    joints = d.joints.copy()
    joints[k] = xy
    return FrameBatch(frame.camera_id, frame.timestamp,
                      [Detection(d.camera_id, d.timestamp, joints, d.confidences, d.index)])


@pytest.mark.parametrize("weighted", [True, False])
def test_a_joint_solved_at_infinity_keeps_its_state(weighted):
    # one walking person, two cameras: joint k of camera B is put at the
    # vanishing point of camera A's newest ray for it, so its two rays are
    # parallel and its solve lands at infinity
    cams, frames, _ = generate(ScenarioSpec(n_people=1, n_cameras=2, duration=1.0, seed=6))
    assert frames[0].camera_id == frames[2].camera_id != frames[1].camera_id \
        == frames[3].camera_id
    by_id = {c.id: c for c in cams}
    k = 3

    def parallel(a, b):
        """Frame b with joint k on a ray parallel to frame a's."""
        xy = vanishing_point(by_id[b.camera_id], by_id[a.camera_id],
                             a.detections[0].joints[k])
        return with_joint_at(b, k, xy)

    # in a build, the joint stays unsolved while the others are solved
    tr = CrossViewTracker(cams, weighted=weighted)
    tr.step(frames[0])
    out = tr.step(parallel(frames[0], frames[1]))
    assert out.ids == [0] and tr._hist_n[0, k] == 0
    assert np.isnan(out.points[0, k]).all()
    others = np.arange(tr.K) != k
    assert (out.points[0, others, 3] == frames[1].timestamp).all()
    assert (tr._hist_n[0, others] == 1).all()

    # in a later match, the joint keeps its point, time and velocity; a
    # threshold below any score makes the match certain, as joint k's ray
    # now passes far from its point
    tr = CrossViewTracker(cams, TrackerConfig(match_threshold=-1e9), weighted=weighted)
    for f in frames[:3]:
        tr.step(f)
    joint = tr._joint[0, k].copy()
    assert (tr._hist_n[0] == 2).all() and np.abs(joint[4:]).max() > 0.0
    out = tr.step(parallel(frames[2], frames[3]))
    assert out.ids == [0] and [r.target_id for r in out.assignments] == [0]
    assert tr._joint[0, k].tobytes() == joint.tobytes() and tr._hist_n[0, k] == 2
    assert (out.points[0, others, 3] == frames[3].timestamp).all()
    assert (tr._hist_n[0, others] == 3).all()


def test_a_group_left_unsolved_builds_no_target_and_uses_no_id(monkeypatch):
    cams, frames, _ = generate(ScenarioSpec(n_people=3, n_cameras=4, duration=1.0,
                                            seed=5, noise_sigma=1.0))
    ref, tr = CrossViewTracker(cams), CrossViewTracker(cams)
    solve = CrossViewTracker._solve
    dropped = []

    def unsolved_first_group(self, q):
        # a solve of new rows only is a frame's new targets; leave the first
        # of two or more groups with no solved joint
        sq = q // self.K  # the joints' rows
        if self is tr and not dropped and (sq >= len(self._ids)).all() \
                and np.unique(sq).size >= 2:
            dropped.append(sq.min())
            q = q[sq != sq.min()]
        solve(self, q)

    monkeypatch.setattr(CrossViewTracker, "_solve", unsolved_first_group)
    for f in frames:
        want, got = ref.step(f), tr.step(f)
        if dropped:
            break
        assert [p.id for p in got.poses] == [p.id for p in want.poses]
    assert dropped and len(want.poses) >= 2
    # the first group's target is missing; the others take its id onward
    first = want.poses[0].id
    assert [p.id for p in got.poses] == list(range(first, first + len(want.poses) - 1))
    assert all(np.array_equal(g.joints, w.joints, equal_nan=True)
               and np.array_equal(g.joint_times, w.joint_times, equal_nan=True)
               for g, w in zip(got.poses, want.poses[1:]))
    # its members stay in the pool, and the records name the others' new ids
    lost = {(r.camera_id, r.timestamp, r.index) for r in want.assignments
            if r.target_id == first}
    pooled = {(d.camera_id, d.timestamp, d.index) for ds in tr.pool.values() for d in ds}
    assert lost and lost <= pooled
    assert [r.target_id for r in got.assignments] == [
        r.target_id - 1 for r in want.assignments if r.target_id != first]
    assert tr._next_id == ref._next_id - 1


def pool_of(frames, n_cameras):
    """The first non-empty frame's detections of each of n_cameras cameras,
    in sorted camera order, as the tracker lists its pool."""
    first = {}
    for f in frames:
        if f.detections and len(first) < n_cameras:
            first.setdefault(f.camera_id, f.detections)
    return [d for cid in sorted(first) for d in first[cid]]


def full_partition(a, cfg):
    """cluster_pool's answer with the partition always run on matrix a."""
    groups = {}
    for i, lab in enumerate(partition_cycle_consistent(a, cfg.max_exact_partition)):
        groups.setdefault(lab, []).append(i)
    return [groups[lab] for lab in sorted(groups) if len(groups[lab]) >= cfg.min_views_init]


@pytest.mark.parametrize("min_views_init", [2, 3])
def test_cluster_pool_equals_the_full_partition_on_random_pools(monkeypatch,
                                                                 min_views_init):
    _, frames, _ = generate(ScenarioSpec(n_people=3, n_cameras=4, duration=0.2,
                                         seed=43, noise_sigma=1.0))
    dets = pool_of(frames, 4)
    cfg = TrackerConfig(min_views_init=min_views_init)
    n = len(dets)
    same = np.array([[a.camera_id == b.camera_id for b in dets] for a in dets])
    rng = np.random.default_rng(43)
    partitions = Counter()
    monkeypatch.setattr(tracker_mod, "partition_cycle_consistent",
                        lambda a, m: partitions.update(["run"]) or
                        partition_cycle_consistent(a, m))
    skipped = zero_merged = 0
    for trial in range(60):
        # entries drawn from -inf, negatives, exact zeros and, in a third of
        # the pools, positives
        kinds = rng.choice(4, size=(n, n), p=[0.3, 0.5, 0.2, 0.0] if trial % 3
                           else [0.2, 0.4, 0.1, 0.3])
        vals = np.choose(kinds, [np.full((n, n), -np.inf), -rng.uniform(0.01, 2, (n, n)),
                                 np.zeros((n, n)), rng.uniform(0.01, 2, (n, n))])
        if trial % 4 == 0:
            vals = np.where(vals == 0, -0.5, vals)  # some pools have no zero
        a = np.triu(vals, 1)
        a = a + a.T
        a[same] = -np.inf
        np.fill_diagonal(a, 0.0)
        before = partitions["run"]
        got = cluster_pool(a, cfg)
        assert got == full_partition(a, cfg)
        off = ~np.eye(n, dtype=bool)
        if (a[off] < 0).all():
            skipped += 1
            assert partitions["run"] == before and got == []
        else:
            assert partitions["run"] == before + 1
            if not (a[off] > 0).any() and got:
                zero_merged += 1  # only zero gains, yet a group came back
    assert skipped >= 5 and zero_merged >= 1


# ten people: more live targets than the 8 rows the tracker starts with
GRID10 = ScenarioSpec(n_people=10, n_cameras=4, rig="grid", duration=1.0, seed=3)


@pytest.mark.parametrize("spec, min_checked", [
    pytest.param(ScenarioSpec(n_people=3, n_cameras=4, duration=2.0, seed=11,
                              noise_sigma=1.0, dropout=0.1), 5, id="ring3"),
    pytest.param(GRID10, 4, id="grid10")])
def test_affinity_matrix_matches_scalar_reference(spec, min_checked):
    cams, frames, _ = generate(spec)
    tr = CrossViewTracker(cams)
    checked = peak = 0
    for i, f in enumerate(frames):
        if tr.targets and f.detections and i % 23 == 0:
            dxy, _, dvm = stack_detections(f.detections, tr.cfg.min_joint_confidence)
            with np.errstate(all="ignore"):
                vec = tr._affinity_core(dxy, dvm, tr._cam_idx[f.camera_id],
                                        f.timestamp)
            ref = np.array([[body_affinity(lambda k: joint_state(tr, r, k), d,
                                           cams[tr._cam_idx[f.camera_id]], tr.cfg)
                             for d in f.detections] for r in range(len(tr.targets))])
            assert np.allclose(vec, ref, atol=1e-9)
            checked += 1
        tr.step(f)
        peak = max(peak, len(tr.targets))
    assert checked >= min_checked
    assert (peak > 8) == (spec.n_people > 8)


RING2 = ScenarioSpec(n_people=2, n_cameras=5, duration=1.5, seed=13, noise_sigma=1.0)


@pytest.mark.parametrize("spec, confidence_weighting", [
    pytest.param(RING2, False, id="False"), pytest.param(RING2, True, id="True"),
    pytest.param(GRID10, False, id="grid10-False"),
    pytest.param(GRID10, True, id="grid10-True")])
def test_update_matches_weighted_triangulation_reference(spec, confidence_weighting):
    cams, frames, _ = generate(spec)
    by_id = {c.id: c for c in cams}
    # a seeded per-detection scale makes the confidences differ across views
    scale = np.random.default_rng(13)
    tr = CrossViewTracker(cams, TrackerConfig(confidence_weighting=confidence_weighting))
    peak = 0
    for f in frames:
        tr.step(FrameBatch(f.camera_id, f.timestamp, [
            Detection(d.camera_id, d.timestamp, d.joints,
                      d.confidences * scale.uniform(0.2, 1.0), d.index)
            for d in f.detections]))
        peak = max(peak, len(tr.targets))
    assert (peak > 8) == (spec.n_people > 8)
    checked = 0
    for r in range(len(tr.targets)):
        for k in range(tr.K):
            js = joint_state(tr, r, k)
            if js.point is None or len(js.observations) < 2:
                continue
            t_ref = max(t for _, _, t in js.observations.values())
            fresh = {c: o for c, o in js.observations.items()
                     if t_ref - o[2] <= tr.cfg.retire_after}
            if len(fresh) < 2:
                continue
            obs = JointObservationSet(tuple(fresh),
                                      [fresh[c][0] for c in fresh],
                                      [fresh[c][2] for c in fresh],
                                      [fresh[c][1] for c in fresh])
            ref = triangulate_joint_weighted(obs, by_id, tr.cfg.lambda_t,
                                             use_confidence=confidence_weighting)
            assert np.allclose(js.point, ref.point, atol=1e-9)
            checked += 1
    assert checked >= 20


def test_null_directions_paths_match_weighted_triangulation():
    # one staggered observation set per joint: the first frame of each camera
    cams, frames, _ = generate(ScenarioSpec(n_people=1, n_cameras=5, duration=0.3,
                                            seed=31, noise_sigma=1.0))
    cam_map = {c.id: c for c in cams}
    first = {}
    for f in frames:
        first.setdefault(f.camera_id, f.detections[0])
    lam = TrackerConfig().lambda_t
    systems, refs = [], []
    for k in range(first[cams[0].id].joints.shape[0]):
        use = [d for d in first.values() if np.isfinite(d.joints[k]).all()]
        obs = JointObservationSet(tuple(d.camera_id for d in use),
                                  [d.joints[k] for d in use],
                                  [d.timestamp for d in use])
        C = build_coefficients(obs, cam_map)
        age = np.repeat(obs.reference_time - obs.times, 2)
        Cw = C * (np.exp(-lam * age) / np.linalg.norm(C, axis=1))[:, None]
        systems.append(Cw.T @ Cw)
        refs.append(triangulate_joint_weighted(obs, cam_map, lam).point)
    AtA, ref = np.array(systems), np.array(refs)
    assert len(ref) >= 10

    near = ref + 1e-3  # warm start at the previous point: converges
    cold = np.full_like(ref, np.nan)  # no previous point: eigh
    # (X_prev, 1) orthogonal to the answer (ref, 1): five steps cannot
    # settle, and the residual test sends every system to eigh
    far = -ref / (ref * ref).sum(axis=1, keepdims=True)
    for start, settles in ((near, True), (cold, False), (far, False)):
        x, conv = null_directions(AtA, start)
        assert (conv == settles).all()
        assert np.allclose(x[:, :3] / x[:, 3:], ref, atol=1e-9)


def test_null_directions_settle_noisy_warm_systems_without_eigh():
    # 2 px noise leaves l0 / l1 near 1e-3; each system is one joint's newest
    # views after a camera frame, warm-started at that joint's previous answer
    cams, frames, _ = generate(ScenarioSpec(n_people=1, n_cameras=6, duration=1.0,
                                            seed=41, noise_sigma=2.0))
    cam_map = {c.id: c for c in cams}
    cfg = TrackerConfig()
    latest, prev = {}, {}
    systems, starts, refs = [], [], []
    for f in frames:
        if not f.detections:
            continue
        latest[f.camera_id] = f.detections[0]
        for k in range(f.detections[0].joints.shape[0]):
            use = [d for d in latest.values() if np.isfinite(d.joints[k]).all()
                   and f.timestamp - d.timestamp <= cfg.retire_after]
            if len(use) < 2:
                continue
            obs = JointObservationSet(tuple(d.camera_id for d in use),
                                      [d.joints[k] for d in use],
                                      [d.timestamp for d in use])
            ref = triangulate_joint_weighted(obs, cam_map, cfg.lambda_t).point
            if k in prev:
                C = build_coefficients(obs, cam_map)
                age = np.repeat(obs.reference_time - obs.times, 2)
                Cw = C * (np.exp(-cfg.lambda_t * age) / np.linalg.norm(C, axis=1))[:, None]
                systems.append(Cw.T @ Cw)
                starts.append(prev[k])
                refs.append(ref)
            prev[k] = ref
    assert len(refs) >= 1000
    AtA = np.array(systems)
    x, conv = null_directions(AtA, np.array(starts))
    assert conv.mean() >= 0.99
    assert np.allclose(x[:, :3] / x[:, 3:], np.array(refs), atol=1e-9)
    # the settled directions are eigh's up to sign
    e = np.linalg.eigh(AtA)[1][:, :, 0]
    e *= np.sign(np.einsum("ni,ni->n", x, e))[:, None]
    assert np.abs(x - e).max() <= 1e-12


def test_velocity_matches_history_regression_reference():
    spec = ScenarioSpec(n_people=2, n_cameras=4, duration=2.0, seed=17)
    cams, frames, _ = generate(spec)
    tr = CrossViewTracker(cams)
    checked = Counter()
    # at every step, so that the joints of new targets, whose history is
    # too short for a velocity, are checked too
    for f in frames:
        tr.step(f)
        for r in range(len(tr.targets)):
            for k in range(tr.K):
                js = joint_state(tr, r, k)
                if not js.history:
                    continue
                v_ref, ok_ref = estimate_velocity(js.history, tr.cfg)
                assert np.allclose(js.velocity, v_ref, atol=1e-9)
                # an invalid velocity is stored as exactly zero
                assert ok_ref or (js.velocity == 0).all()
                checked[ok_ref] += 1
    assert checked[True] >= 1000 and checked[False] >= 20, checked


def test_unweighted_mode_matches_plain_reference():
    spec = ScenarioSpec(n_people=1, n_cameras=4, duration=1.0, seed=19,
                        noise_sigma=2.0)
    cams, frames, _ = generate(spec)
    tr = CrossViewTracker(cams, weighted=False)
    for f in frames:
        tr.step(f)
    assert tr.targets
    checked = 0
    for k in range(tr.K):
        js = joint_state(tr, 0, k)
        if js.point is None:
            continue
        t_ref = max(t for _, _, t in js.observations.values())
        fresh = {c: o for c, o in js.observations.items()
                 if t_ref - o[2] <= tr.cfg.retire_after}
        if len(fresh) < 2:
            continue
        obs = JointObservationSet(tuple(fresh),
                                  [fresh[c][0] for c in fresh],
                                  [fresh[c][2] for c in fresh],
                                  [fresh[c][1] for c in fresh])
        ref = triangulate_joint(obs, {c.id: c for c in cams})
        assert np.allclose(js.point, ref.point, atol=1e-9)
        checked += 1
    assert checked >= 10


def test_stream_is_deterministic():
    spec = ScenarioSpec(n_people=3, n_cameras=4, duration=3.0, seed=23,
                        noise_sigma=2.0, dropout=0.1)
    cams, frames, _ = generate(spec)

    def digest():
        tr = CrossViewTracker(cams)
        blobs = []
        for f in frames:
            out = tr.step(f)
            for p in out.poses:
                blobs.append(p.joints.tobytes())
                blobs.append(p.joint_times.tobytes())
            blobs.extend(repr(a).encode() for a in out.assignments)
        return b"".join(blobs)

    assert digest() == digest()


def test_ids_are_unique_and_monotone():
    spec = ScenarioSpec(n_people=3, n_cameras=4, duration=3.0, seed=29,
                        noise_sigma=2.0, dropout=0.2)
    cams, frames, _ = generate(spec)
    tr = CrossViewTracker(cams)
    seen = []
    for f in frames:
        for r in tr.step(f).assignments:
            if r.target_id is not None and r.target_id not in seen:
                seen.append(r.target_id)
    assert seen == sorted(seen)
    assert len(seen) == len(set(seen))
