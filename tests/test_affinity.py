"""Affinity scoring tests with frozen hand-computed expectations."""

import math

import numpy as np
import pytest

from posefuse.affinity import ChronologyViolation, TrackerConfig, epipolar_affinity_matrix
from posefuse.geometry import CameraView, fundamental_from_projections, project
from posefuse.tracker import stack_detections

from helpers import make_camera
from oracles import (NoState, SameCamera, affinity_2d, affinity_3d, body_affinity,
                     epipolar_affinity, estimate_velocity)

CFG = TrackerConfig()

IDENTITY_P = np.hstack([np.eye(3), np.zeros((3, 1))])


class FakeJoint:
    def __init__(self, point=None, point_time=0.0, velocity=(0, 0, 0), velocity_valid=False,
                 observations=None):
        self.point = None if point is None else np.asarray(point, float)
        self.point_time = point_time
        self.velocity = np.asarray(velocity, float)
        self.velocity_valid = velocity_valid
        self.observations = observations or {}


class FakeDet:
    def __init__(self, camera_id, timestamp, joints, confidences=None):
        self.camera_id = camera_id
        self.timestamp = timestamp
        self.joints = np.asarray(joints, float)
        if confidences is None:
            confidences = np.ones(len(self.joints))
        self.confidences = np.asarray(confidences, float)


def test_affinity_2d_frozen_value():
    # 3 px over 0.1 s at 60 px/s: 0.4 * (1 - 3/6) * exp(-0.5)
    got = affinity_2d((0.0, 0.0), 0.0, (3.0, 0.0), 0.1, CFG)
    assert abs(got - 0.12130613194252668) < 1e-12


def test_affinity_2d_zero_gap_cases():
    assert affinity_2d((5.0, 5.0), 1.0, (5.0, 5.0), 1.0, CFG) == CFG.w2d
    assert affinity_2d((5.0, 5.0), 1.0, (6.0, 5.0), 1.0, CFG) == float("-inf")


def test_affinity_2d_chronology():
    with pytest.raises(ChronologyViolation):
        affinity_2d((0.0, 0.0), 1.0, (0.0, 0.0), 1.0 - 2e-3, CFG)
    # within the 1 ms clock tolerance the gap collapses to zero
    assert affinity_2d((0.0, 0.0), 1.0, (0.0, 0.0), 1.0 - 5e-4, CFG) == CFG.w2d


def test_affinity_2d_sign_flips_past_tolerated_motion():
    # gap exactly alpha2d * dt gives zero, beyond it negative
    at = affinity_2d((0.0, 0.0), 0.0, (6.0, 0.0), 0.1, CFG)
    assert abs(at) < 1e-15
    assert affinity_2d((0.0, 0.0), 0.0, (12.0, 0.0), 0.1, CFG) < 0


def test_affinity_3d_frozen_value():
    cam = CameraView.from_projection("c", IDENTITY_P, (640, 480))
    # pixel (0,0) back-projects to the z axis; point offset 0.075 m, dt 0.2 s:
    # 0.6 * (1 - 0.075/0.15) * exp(-1.0)
    joint = FakeJoint(point=(0.075, 0.0, 2.0), point_time=0.0)
    got = affinity_3d(joint, (0.0, 0.0), 0.2, cam, CFG)
    assert abs(got - 0.11036383235143270) < 1e-12


def test_affinity_3d_uses_velocity_prediction():
    cam = CameraView.from_projection("c", IDENTITY_P, (640, 480))
    # moving joint lands exactly on the ray at detection time
    joint = FakeJoint(point=(-0.5, 0.0, 2.0), point_time=0.0,
                      velocity=(1.0, 0.0, 0.0), velocity_valid=True)
    got = affinity_3d(joint, (0.0, 0.0), 0.5, cam, CFG)
    want = CFG.w3d * np.exp(-CFG.lambda_a * 0.5)
    assert abs(got - want) < 1e-12


def test_affinity_3d_without_state():
    cam = CameraView.from_projection("c", IDENTITY_P, (640, 480))
    with pytest.raises(NoState):
        affinity_3d(FakeJoint(point=None), (0.0, 0.0), 0.1, cam, CFG)


def test_estimate_velocity_exact_line():
    hist = [(0.1 * i, np.array([0.5 * 0.1 * i, -0.2 * 0.1 * i, 1.0])) for i in range(8)]
    v, ok = estimate_velocity(hist, CFG)
    assert ok
    assert np.abs(v - np.array([0.5, -0.2, 0.0])).max() < 1e-12


def test_estimate_velocity_window_trims_history():
    # old fast motion followed by rest; window of 10 sees only the rest
    hist = [(0.1 * i, np.array([10.0 * 0.1 * i, 0.0, 0.0])) for i in range(10)]
    hist += [(1.0 + 0.1 * i, np.array([10.0, 0.0, 0.0])) for i in range(10)]
    v, ok = estimate_velocity(hist, CFG)
    assert ok
    assert np.abs(v).max() < 1e-12


def test_estimate_velocity_degenerate_cases():
    v, ok = estimate_velocity([(0.0, np.zeros(3))], CFG)
    assert not ok and np.all(v == 0)
    v, ok = estimate_velocity([(0.0, np.zeros(3)), (1e-4, np.ones(3))], CFG)
    assert not ok and np.all(v == 0)


def test_estimate_velocity_noisy_bound():
    # 10 samples over 1 s with sigma 0.01 m; slope sigma is
    # 0.01 / sqrt(sum (t - mean)^2) = 0.00991, so 3 sigma < 0.03
    rng = np.random.default_rng(7)
    for _ in range(20):
        t = np.linspace(0.0, 1.0, 10)
        hist = [(ti, np.array([0.5 * ti, 0.0, 0.0]) + rng.normal(0, 0.01, 3)) for ti in t]
        v, ok = estimate_velocity(hist, CFG)
        assert ok
        assert abs(v[0] - 0.5) < 0.03


def test_body_affinity_sums_terms_and_defaults_to_zero():
    cam = CameraView.from_projection("c", IDENTITY_P, (640, 480))
    joints = [FakeJoint() for _ in range(3)]
    det = FakeDet("c", 0.1, [[0.0, 0.0]] * 3)
    # no observations, no 3D state: exactly zero
    assert body_affinity(joints.__getitem__, det, cam, CFG) == 0.0

    joints[0] = FakeJoint(point=(0.075, 0.0, 2.0), point_time=-0.1,
                          observations={"c": (np.array([3.0, 0.0]), 1.0, 0.0)})
    want_2d = affinity_2d((3.0, 0.0), 0.0, (0.0, 0.0), 0.1, CFG)
    want_3d = affinity_3d(joints[0], (0.0, 0.0), 0.1, cam, CFG)
    got = body_affinity(joints.__getitem__, det, cam, CFG)
    assert abs(got - (want_2d + want_3d)) < 1e-12


def test_body_affinity_skips_low_confidence_joints():
    cam = CameraView.from_projection("c", IDENTITY_P, (640, 480))
    joints = [FakeJoint(point=(0.0, 0.0, 2.0), point_time=0.0)]
    det = FakeDet("c", 0.1, [[0.0, 0.0]], confidences=[0.05])
    assert body_affinity(joints.__getitem__, det, cam, CFG) == 0.0


def test_epipolar_affinity_perfect_correspondence():
    cams = [make_camera("a", (4.0, 0.0, 2.0)), make_camera("b", (0.0, 4.0, 2.0))]
    F = fundamental_from_projections(cams[0], cams[1])
    pts = np.array([[0.0, 0.0, 1.0], [0.2, 0.1, 1.5], [-0.3, 0.2, 0.8]])
    d1 = FakeDet("a", 0.0, [project(cams[0], X) for X in pts])
    d2 = FakeDet("b", 0.0, [project(cams[1], X) for X in pts])
    got = epipolar_affinity(d1, d2, F, CFG)
    assert abs(got - 1.0) < 1e-6
    # symmetric under swapping views (transpose maps the other way)
    assert epipolar_affinity(d2, d1, F.T, CFG) == got


def test_epipolar_affinity_min_shared_joints():
    cams = [make_camera("a", (4.0, 0.0, 2.0)), make_camera("b", (0.0, 4.0, 2.0))]
    F = fundamental_from_projections(cams[0], cams[1])
    d1 = FakeDet("a", 0.0, [[10.0, 10.0]] * 3, confidences=[1.0, 1.0, 0.0])
    d2 = FakeDet("b", 0.0, [[10.0, 10.0]] * 3)
    assert epipolar_affinity(d1, d2, F, CFG) == float("-inf")


def test_epipolar_affinity_same_camera():
    d1 = FakeDet("a", 0.0, [[0.0, 0.0]] * 3)
    d2 = FakeDet("a", 0.0, [[1.0, 1.0]] * 3)
    with pytest.raises(SameCamera):
        epipolar_affinity(d1, d2, np.eye(3), CFG)


def test_epipolar_affinity_matrix_matches_scalar():
    cams = [make_camera("a", (4.0, 0.0, 2.0)), make_camera("b", (0.0, 4.0, 2.0)),
            make_camera("c", (-4.0, 0.0, 2.0))]
    from posefuse.geometry import build_fundamental_table

    table = build_fundamental_table(cams)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.5, 0.5, size=(2, 4, 3)) + np.array([0.0, 0.0, 1.2])
    dets, ids = [], []
    for p, X in enumerate(pts):
        for cam in cams[:2] if p == 0 else cams[1:]:
            dets.append(FakeDet(cam.id, 0.0, [project(cam, x) for x in X]))
            ids.append(cam.id)
    xy, _, vis = stack_detections(dets, CFG.min_joint_confidence)
    a = epipolar_affinity_matrix(xy, vis, ids, table, CFG)
    assert np.array_equal(a, a.T)
    for i in range(len(dets)):
        assert a[i, i] == 0.0
        for j in range(i + 1, len(dets)):
            if ids[i] == ids[j]:
                assert a[i, j] == float("-inf")
            else:
                want = epipolar_affinity(dets[i], dets[j], table[(ids[i], ids[j])], CFG)
                # the matrix sums in a different order than the scalar loop
                if np.isfinite(want):
                    assert abs(a[i, j] - want) <= 1e-12
                else:
                    assert a[i, j] == want


def test_config_validation_and_defaults():
    cfg = TrackerConfig()
    assert (cfg.w2d, cfg.w3d) == (0.4, 0.6)
    assert (cfg.alpha2d, cfg.alpha3d) == (60.0, 0.15)
    assert (cfg.lambda_a, cfg.lambda_t) == (5.0, 10.0)
    assert cfg.alpha2d_epi == 30.0
    for bad in [dict(w2d=-0.1), dict(alpha2d=0.0), dict(alpha3d=-1.0),
                dict(lambda_a=-0.5), dict(velocity_window=1), dict(retire_after=0.0),
                dict(min_shared_joints=0)]:
        with pytest.raises(ValueError):
            TrackerConfig(**bad)


@pytest.mark.parametrize("field", ["w2d", "alpha2d", "alpha3d", "lambda_t",
                                   "match_threshold", "retire_after",
                                   "min_joint_confidence", "alpha2d_epi",
                                   "velocity_window"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        TrackerConfig(**{field: value})


def test_affinity_scale_invariance_of_sign():
    # doubling both weights doubles every finite score
    cfg2 = TrackerConfig(w2d=0.8, w3d=1.2)
    a = affinity_2d((0.0, 0.0), 0.0, (3.0, 0.0), 0.1, CFG)
    b = affinity_2d((0.0, 0.0), 0.0, (3.0, 0.0), 0.1, cfg2)
    assert abs(b - 2.0 * a) < 1e-15
