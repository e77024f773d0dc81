"""Scene generator checks: rigid skeletons, exact projections, stream timing,
determinism, and the per-frame brute-force baseline."""

import numpy as np
import pytest

from posefuse.affinity import TrackerConfig
from posefuse.geometry import build_fundamental_table, project_points
from posefuse.simulator import (InvalidSpec, ScenarioSpec, baseline_alg_s1,
                                generate, make_rig, synchronized_groups,
                                N_JOINTS, _PersonMotion)

from oracles import triangulate_group

# skeleton edges with their generating bone-table keys
BONE_EDGES = [
    (0, 1, "head"),
    (2, 4, "upper_arm"), (3, 5, "upper_arm"),
    (4, 6, "lower_arm"), (5, 7, "lower_arm"),
    (8, 10, "upper_leg"), (9, 11, "upper_leg"),
    (10, 12, "lower_leg"), (11, 13, "lower_leg"),
]


def test_bone_lengths_constant_over_time():
    spec = ScenarioSpec(n_people=2, duration=5.0, seed=1)
    rng = np.random.default_rng(spec.seed)
    person = _PersonMotion(spec, rng, 0)
    ts = np.linspace(0.0, spec.duration, 97)
    for a, b, key in BONE_EDGES:
        lengths = np.array([np.linalg.norm(person.pose(t)[a] - person.pose(t)[b])
                            for t in ts])
        assert np.ptp(lengths) <= 1e-12
        assert abs(lengths[0] - spec.bone_lengths[key]) <= 1e-12
    # shoulder and hip half-widths form constant cross-bones too
    for a, b, key, mult in [(2, 3, "shoulder", 2.0), (8, 9, "hip", 2.0)]:
        lengths = np.array([np.linalg.norm(person.pose(t)[a] - person.pose(t)[b])
                            for t in ts])
        assert np.ptp(lengths) <= 1e-12
        assert abs(lengths[0] - mult * spec.bone_lengths[key]) <= 1e-12


def test_motion_is_continuous():
    spec = ScenarioSpec(n_people=1, duration=4.0, seed=2)
    rng = np.random.default_rng(spec.seed)
    person = _PersonMotion(spec, rng, 0)
    dt = 1e-3
    for t in np.linspace(0.0, spec.duration - dt, 211):
        step = np.linalg.norm(person.pose(t + dt) - person.pose(t), axis=1).max()
        assert step <= 5.0 * dt  # bounded joint velocity


def test_detections_are_projection_plus_recorded_noise():
    spec = ScenarioSpec(n_people=2, n_cameras=3, duration=1.0, seed=3,
                        noise_sigma=1.5, dropout=0.2)
    cams, frames, truth = generate(spec)
    cam_map = {c.id: c for c in cams}
    checked = 0
    for f in frames:
        poses = truth.poses_at(f.timestamp)
        for d in f.detections:
            p = truth.det_person[(f.camera_id, f.timestamp, d.index)]
            uv, _ = project_points(cam_map[f.camera_id], poses[p])
            noise = truth.noise[(f.camera_id, f.timestamp, d.index)]
            vis = np.isfinite(d.joints).all(axis=1)
            assert np.array_equal(d.joints[vis], (uv + noise)[vis])
            assert np.isnan(noise[~vis]).all()
            checked += vis.sum()
    assert checked > 100


def test_stream_order_and_per_camera_cadence():
    spec = ScenarioSpec(n_people=1, n_cameras=12, rig="grid", duration=2.0, seed=4)
    cams, frames, _ = generate(spec)
    ts = [f.timestamp for f in frames]
    assert ts == sorted(ts)
    period = 1.0 / spec.fps
    per_cam = {}
    for f in frames:
        per_cam.setdefault(f.camera_id, []).append(f.timestamp)
    assert len(per_cam) == 12
    for times in per_cam.values():
        gaps = np.diff(times)
        assert np.abs(gaps - period).max() <= 2e-9
    # merged stream rate is the sum of the per-camera rates
    assert len(frames) == sum(len(v) for v in per_cam.values())
    assert len(frames) >= 12 * int(spec.duration * spec.fps)


def test_default_phases_stagger_cameras():
    spec = ScenarioSpec(n_people=1, n_cameras=4, duration=1.0, seed=5)
    _, frames, _ = generate(spec)
    first = {}
    for f in frames:
        first.setdefault(f.camera_id, f.timestamp)
    period = 1.0 / spec.fps
    for i in range(4):
        assert abs(first[f"cam{i:02d}"] - round(i * period / 4, 9)) <= 1e-9


def test_timestamp_jitter_stays_bounded():
    spec = ScenarioSpec(n_people=1, n_cameras=2, duration=2.0, seed=6,
                        timestamp_jitter=0.004)
    _, frames, _ = generate(spec)
    period = 1.0 / spec.fps
    per_cam = {}
    for f in frames:
        per_cam.setdefault(f.camera_id, []).append(f.timestamp)
    for times in per_cam.values():
        gaps = np.diff(times)
        assert (gaps > 0).all()
        assert np.abs(gaps - period).max() <= 2 * 0.004 + 1e-9


def test_generate_is_deterministic():
    spec = ScenarioSpec(n_people=3, n_cameras=4, duration=2.0, seed=7,
                        noise_sigma=2.0, dropout=0.1)

    def digest():
        _, frames, _ = generate(spec)
        parts = []
        for f in frames:
            parts.append(f.camera_id.encode())
            parts.append(np.float64(f.timestamp).tobytes())
            for d in f.detections:
                parts.append(d.joints.tobytes())
                parts.append(d.confidences.tobytes())
        return b"".join(parts)

    assert digest() == digest()


@pytest.mark.parametrize("kw", [
    dict(n_people=-1),
    dict(duration=0.0),
    dict(rig="dome"),
    dict(n_cameras=0),
    dict(fps=0.0),
    dict(dropout=1.0),
    dict(noise_sigma=-1.0),
    dict(timestamp_jitter=0.5),
    dict(phase_offsets=(0.0,), n_cameras=2),
    dict(waypoints=(((0.0, 0.0),),), n_people=2),
    dict(root_speed=-0.1),
])
def test_invalid_specs_rejected(kw):
    with pytest.raises(InvalidSpec):
        ScenarioSpec(**kw)


def test_from_dict_round_trip_and_unknown_keys():
    spec = ScenarioSpec.from_dict({"n_people": 2, "duration": 3.0, "seed": 9,
                                   "image_size": [640, 480]})
    assert spec.image_size == (640, 480) and spec.n_people == 2
    with pytest.raises(InvalidSpec):
        ScenarioSpec.from_dict({"n_peple": 2})


def test_person_behind_camera_not_emitted():
    # cam01 sits at (0, r) looking at the origin; a person far up the +y axis
    # is behind it and must never appear in its frames
    spec = ScenarioSpec(n_people=2, n_cameras=4, duration=1.0, seed=10,
                        root_speed=0.0, swing_amplitude=0.0,
                        waypoints=(((0.0, 0.0),), ((0.0, 60.0),)))
    _, frames, truth = generate(spec)
    cam1_people = {truth.det_person[("cam01", f.timestamp, d.index)]
                   for f in frames if f.camera_id == "cam01" for d in f.detections}
    assert cam1_people == {0}


def test_every_emitted_detection_has_a_joint():
    spec = ScenarioSpec(n_people=2, n_cameras=3, duration=2.0, seed=11,
                        dropout=0.9)
    _, frames, truth = generate(spec)
    count = 0
    for f in frames:
        for d in f.detections:
            assert np.isfinite(d.joints).all(axis=1).any()
            assert (f.camera_id, f.timestamp, d.index) in truth.det_person
            count += 1
    assert count > 0


def test_truth_lookup_matches_frames():
    spec = ScenarioSpec(n_people=2, n_cameras=3, duration=1.0, seed=12)
    _, frames, truth = generate(spec)
    f = frames[7]
    poses = truth.poses_at(f.timestamp)
    assert set(poses) == {0, 1}
    assert all(p.shape == (N_JOINTS, 3) for p in poses.values())


def test_grid_rig_geometry():
    spec = ScenarioSpec(n_people=1, n_cameras=12, rig="grid", duration=1.0, seed=13)
    cams = make_rig(spec)
    assert len(cams) == 12
    assert len({c.id for c in cams}) == 12
    for c in cams:
        assert abs(c.center[2] - spec.grid_height) <= 1e-9


def test_synchronized_groups_structure():
    spec = ScenarioSpec(n_people=1, n_cameras=3, duration=1.0, seed=14)
    _, frames, _ = generate(spec)
    groups = synchronized_groups(frames)
    assert len(groups) >= int(spec.duration * spec.fps)
    period = 1.0 / spec.fps
    for g in groups:
        assert [f.camera_id for f in g] == ["cam00", "cam01", "cam02"]
        span = max(f.timestamp for f in g) - min(f.timestamp for f in g)
        assert span < period


def test_baseline_single_person_exact():
    spec = ScenarioSpec(n_people=1, n_cameras=3, duration=0.5, seed=15,
                        root_speed=0.0, swing_amplitude=0.0,
                        waypoints=(((0.4, -0.3),),))
    cams, frames, truth = generate(spec)
    group = synchronized_groups(frames)[0]
    stamp, poses, members = baseline_alg_s1(group, cams, TrackerConfig())
    assert len(poses) == 1
    (pose,) = poses.values()
    true_pose = truth.poses_at(group[0].timestamp)[0]
    vis = np.isfinite(pose).all(axis=1)
    assert vis.sum() >= 10
    assert np.linalg.norm((pose - true_pose)[vis], axis=1).max() <= 1e-6


def test_baseline_separates_two_people():
    spec = ScenarioSpec(n_people=2, n_cameras=3, duration=0.5, seed=16,
                        root_speed=0.0, swing_amplitude=0.0,
                        waypoints=(((1.0, 0.0),), ((-1.0, 0.0),)))
    cams, frames, truth = generate(spec)
    group = synchronized_groups(frames)[0]
    _, poses, members = baseline_alg_s1(group, cams, TrackerConfig())
    assert len(poses) == 2
    for ci, dets in members.items():
        ids = {truth.det_person[(d.camera_id, d.timestamp, d.index)] for d in dets}
        assert len(ids) == 1


def test_baseline_poses_match_per_joint_oracle():
    cams, frames, _ = generate(ScenarioSpec(n_people=3, n_cameras=6, duration=1.0,
                                            seed=41, noise_sigma=2.0, dropout=0.15))
    cfg = TrackerConfig()
    ftable = build_fundamental_table(cams)
    cam_map = {c.id: c for c in cams}
    checked = 0
    for group in synchronized_groups(frames):
        _, poses, members = baseline_alg_s1(group, cams, cfg, ftable)
        for i, pose in poses.items():
            want = triangulate_group(members[i], cam_map, cfg.min_joint_confidence)
            assert np.array_equal(pose, want, equal_nan=True)
            checked += 1
    assert checked >= 50


def test_baseline_is_the_same_for_a_rig_listed_out_of_id_order():
    cams, frames, _ = generate(ScenarioSpec(n_people=3, n_cameras=6, duration=1.0,
                                            seed=41, noise_sigma=2.0, dropout=0.15))
    cfg = TrackerConfig()
    rigs = [cams, cams[::-1]]
    tables = [build_fundamental_table(rig) for rig in rigs]
    built = 0
    for group in synchronized_groups(frames)[:20]:
        want, got = (baseline_alg_s1(group, rig, cfg, table)
                     for rig, table in zip(rigs, tables))
        assert got[0] == want[0] and got[1].keys() == want[1].keys()
        for i, pose in want[1].items():
            assert np.array_equal(got[1][i], pose, equal_nan=True)
            assert [id(d) for d in got[2][i]] == [id(d) for d in want[2][i]]
        built += len(want[1])
    assert built >= 50
