"""Triangulation tests: exactness, weighting behavior, degeneracies.

The scalar solvers from oracles are the references; the baseline's batched
plain solve, which stacks the rows and hands the normal matrices to the
tracker's shared triangulate, must match them bit for bit."""

import numpy as np
import pytest

from posefuse.geometry import CameraView, hom
from posefuse.simulator import plain_pose
from posefuse.tracker import UnknownCamera

from helpers import make_camera, random_rig
from oracles import (
    InsufficientViews,
    JointObservationSet,
    NearDegenerate,
    TriangulationResult,
    build_coefficients,
    project,
    row_weight,
    triangulate_joint,
    triangulate_joint_weighted,
)


def cam_map(cams):
    return {c.id: c for c in cams}


def observe(cams, X, times=None, noise=None, rng=None):
    pts = []
    for c in cams:
        uv = project(c, X)
        if noise:
            uv = uv + rng.normal(0.0, noise, 2)
        pts.append(uv)
    if times is None:
        times = np.zeros(len(cams))
    return JointObservationSet(tuple(c.id for c in cams), pts, times)


def test_row_weight_frozen_value():
    # exp(-10 * 0.1) / 1.0
    assert abs(row_weight(1.0, 0.9, 10.0, 1.0) - 0.36787944117144233) < 1e-15
    assert row_weight(1.0, 1.0, 10.0, 2.0) == 0.5
    with pytest.raises(ValueError):
        row_weight(1.0, 0.9, 10.0, 0.0)


def test_build_coefficients_rows():
    cam = make_camera("a", (4.0, 0.0, 2.0))
    X = np.array([0.3, -0.2, 1.1])
    uv = project(cam, X)
    obs = JointObservationSet(("a",), [uv], [0.0])
    C = build_coefficients(obs, cam_map([cam]))
    assert C.shape == (2, 4)
    assert np.allclose(C[0], uv[0] * cam.P[2] - cam.P[0])
    assert np.allclose(C[1], uv[1] * cam.P[2] - cam.P[1])
    # a perfect observation's rows annihilate the true point
    assert np.abs(C @ hom(X)).max() < 1e-9


def test_observation_set_validation():
    with pytest.raises(ValueError):
        JointObservationSet(("a", "a"), [[0, 0], [1, 1]], [0.0, 0.0])
    with pytest.raises(ValueError):
        JointObservationSet((), np.zeros((0, 2)), [])
    obs = JointObservationSet(("a", "b"), [[0, 0], [1, 1]], [1.0, 3.0])
    assert obs.reference_time == 3.0


def test_triangulate_noiseless_exact(rng):
    for _ in range(100):
        n = int(rng.integers(2, 6))
        cams = random_rig(rng, n)
        X = rng.uniform(-1.5, 1.5, size=3) + np.array([0.0, 0.0, 1.2])
        res = triangulate_joint(observe(cams, X), cam_map(cams))
        assert np.linalg.norm(res.point - X) < 1e-8
        assert res.residual_px < 1e-6
        assert res.n_views == n


def test_triangulate_insufficient_and_unknown():
    cams = random_rig(np.random.default_rng(1), 2)
    X = np.array([0.0, 0.0, 1.0])
    with pytest.raises(InsufficientViews):
        triangulate_joint(JointObservationSet(("cam00",), [project(cams[0], X)], [0.0]),
                    cam_map(cams))
    obs = observe(cams, X)
    with pytest.raises(UnknownCamera):
        triangulate_joint(obs, {cams[0].id: cams[0]})


def test_triangulate_coincident_centers():
    cams = random_rig(np.random.default_rng(2), 2)
    # second view duplicates the first camera under a different id
    twin = CameraView("twin", cams[0].P, cams[0].P_plus, cams[0].center, cams[0].image_size)
    X = np.array([0.2, 0.1, 1.0])
    obs = JointObservationSet((cams[0].id, "twin"),
                              [project(cams[0], X), project(twin, X)], [0.0, 0.0])
    with pytest.raises(InsufficientViews):
        triangulate_joint(obs, {cams[0].id: cams[0], "twin": twin})


def test_triangulate_parallel_rays_near_degenerate():
    P1 = np.hstack([np.eye(3), np.zeros((3, 1))])
    P2 = np.hstack([np.eye(3), np.array([[-1.0], [0.0], [0.0]])])
    a = CameraView.from_projection("a", P1)
    b = CameraView.from_projection("b", P2)
    obs = JointObservationSet(("a", "b"), [[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0])
    with pytest.raises(NearDegenerate):
        triangulate_joint(obs, {"a": a, "b": b})


def test_noisy_median_regression_bound(rng):
    # 4 ring cameras, 1 px noise; the 2 cm spec ceiling plus the measured
    # median (4.6 mm on seed 900) frozen as a tighter regression bound
    errs = []
    gen = np.random.default_rng(900)
    for _ in range(300):
        cams = random_rig(gen, 4)
        X = gen.uniform(-1.5, 1.5, size=3) + np.array([0.0, 0.0, 1.2])
        obs = observe(cams, X, noise=1.0, rng=gen)
        res = triangulate_joint(obs, cam_map(cams))
        errs.append(np.linalg.norm(res.point - X))
    med = float(np.median(errs))
    assert med < 0.02
    assert med < 0.006


def test_weighted_equal_times_is_row_normalized_plain(rng):
    for _ in range(50):
        cams = random_rig(rng, 3)
        X = rng.uniform(-1.0, 1.0, size=3) + np.array([0.0, 0.0, 1.2])
        obs = observe(cams, X, times=np.full(3, 2.0))
        got = triangulate_joint_weighted(obs, cam_map(cams), lambda_t=10.0)
        # independent oracle: svd of the row-normalized stack
        C = build_coefficients(obs, cam_map(cams))
        Cn = C / np.linalg.norm(C, axis=1, keepdims=True)
        xt = np.linalg.svd(Cn)[2][-1]
        want = xt[:3] / xt[3]
        assert np.linalg.norm(got.point - want) < 1e-9
        assert np.linalg.norm(got.point - X) < 1e-8
        # zero decay rate gives the same solution regardless of timestamps
        got0 = triangulate_joint_weighted(obs, cam_map(cams), lambda_t=0.0)
        assert np.linalg.norm(got0.point - got.point) < 1e-9


def test_weighted_decays_stale_views(rng):
    # point moving 1 m/s; two live views plus one 0.3 s stale view
    wins = 0
    trials = 200
    gen = np.random.default_rng(77)
    for _ in range(trials):
        cams = random_rig(gen, 3)
        v = np.array([1.0, 0.0, 0.0])
        X_now = gen.uniform(-1.0, 1.0, size=3) + np.array([0.0, 0.0, 1.2])
        X_old = X_now - 0.3 * v
        pts = [project(cams[0], X_now), project(cams[1], X_now), project(cams[2], X_old)]
        obs = JointObservationSet(tuple(c.id for c in cams), pts, [1.0, 1.0, 0.7])
        w = triangulate_joint_weighted(obs, cam_map(cams), lambda_t=10.0)
        p = triangulate_joint(obs, cam_map(cams))
        if np.linalg.norm(w.point - X_now) < np.linalg.norm(p.point - X_now):
            wins += 1
    assert wins >= 0.95 * trials


def test_confidence_weighting_downweights_views(rng):
    cams = random_rig(rng, 3)
    X = np.array([0.3, -0.4, 1.1])
    pts = [project(c, X) for c in cams]
    pts[2] = pts[2] + np.array([40.0, -25.0])  # corrupted third view
    obs = JointObservationSet(tuple(c.id for c in cams), pts, np.zeros(3),
                              confidences=[1.0, 1.0, 1e-6])
    with_conf = triangulate_joint_weighted(obs, cam_map(cams), 10.0, use_confidence=True)
    without = triangulate_joint_weighted(obs, cam_map(cams), 10.0, use_confidence=False)
    err_with = np.linalg.norm(with_conf.point - X)
    err_without = np.linalg.norm(without.point - X)
    assert err_with < 1e-4
    assert err_with < err_without


def test_result_shape():
    cams = random_rig(np.random.default_rng(9), 2)
    X = np.array([0.1, 0.2, 1.3])
    res = triangulate_joint(observe(cams, X), cam_map(cams))
    assert isinstance(res, TriangulationResult)
    assert res.point.shape == (3,)


def test_kernel_matches_per_joint_oracle_bit_for_bit():
    gen = np.random.default_rng(4242)
    checked = 0
    for _ in range(200):
        n, K = int(gen.integers(2, 8)), 14
        cams = random_rig(gen, n)
        X = gen.uniform(-1.5, 1.5, size=(K, 3)) + np.array([0.0, 0.0, 1.2])
        xy = np.array([[project(c, x) for x in X] for c in cams])
        xy += gen.normal(0.0, 2.0, xy.shape)
        vis = gen.random((n, K)) < 0.7
        # a view that does not see a joint may still carry a finite point
        xy[~vis & (gen.random((n, K)) < 0.5)] = np.nan
        got = plain_pose(np.stack([c.P for c in cams]), xy, vis)
        for k in range(K):
            seen = np.flatnonzero(vis[:, k])
            want = np.full(3, np.nan)
            if len(seen) >= 2:
                obs = JointObservationSet(tuple(cams[i].id for i in seen),
                                          xy[seen, k], np.zeros(len(seen)))
                want = triangulate_joint(obs, cam_map(cams)).point
                checked += 1
            assert np.array_equal(got[k], want, equal_nan=True)
    assert checked >= 1500


def test_kernel_nan_for_one_view_and_parallel_rays():
    cams = random_rig(np.random.default_rng(3), 3)
    X = np.array([[0.1, 0.2, 1.3], [0.4, -0.3, 0.9]])
    xy = np.array([[project(c, x) for x in X] for c in cams])
    vis = np.array([[True, True], [True, False], [True, False]])
    got = plain_pose(np.stack([c.P for c in cams]), xy, vis)
    assert np.linalg.norm(got[0] - X[0]) < 1e-8
    assert np.isnan(got[1]).all()
    # two views one unit apart along x, both looking down +z at the
    # principal point: their rays are parallel
    P = np.stack([np.hstack([np.eye(3), np.zeros((3, 1))]),
                  np.hstack([np.eye(3), np.array([[-1.0], [0.0], [0.0]])])])
    got = plain_pose(P, np.zeros((2, 1, 2)), np.ones((2, 1), dtype=bool))
    assert np.isnan(got).all()
