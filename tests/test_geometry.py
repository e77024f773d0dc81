"""Camera model unit tests with independent numeric oracles."""

import numpy as np
import pytest

from posefuse.geometry import (
    CameraView,
    CoincidentCenters,
    DegenerateLine,
    DegenerateProjection,
    RankDeficientP,
    build_fundamental_table,
    epipolar_line,
    fundamental_from_projections,
    hom,
    point_to_line_distance,
    project,
    project_points,
)

from helpers import make_camera, random_camera
from oracles import Ray3, back_project, point_to_ray_distance


IDENTITY_P = np.hstack([np.eye(3), np.zeros((3, 1))])


def golden_min_distance(X, ray, span=100.0, iters=200):
    """Golden-section search over the ray parameter; independent of cross products."""
    f = lambda s: np.linalg.norm(X - (ray.origin + s * ray.direction))
    lo, hi = -span, span
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a = hi - phi * (hi - lo)
    b = lo + phi * (hi - lo)
    fa, fb = f(a), f(b)
    for _ in range(iters):
        if fa < fb:
            hi, b, fb = b, a, fa
            a = hi - phi * (hi - lo)
            fa = f(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + phi * (hi - lo)
            fb = f(b)
    return min(fa, fb)


def frustum_point(rng, cam):
    """Random world point that projects inside the image with positive depth."""
    for _ in range(1000):
        X = rng.uniform(-2.5, 2.5, size=3) + np.array([0.0, 0.0, 1.2])
        w = cam.P @ hom(X)
        if w[2] <= 0.05:
            continue
        uv = w[:2] / w[2]
        if 0 <= uv[0] < cam.image_size[0] and 0 <= uv[1] < cam.image_size[1]:
            return X
    raise AssertionError("no frustum point found")


def test_identity_projection_examples():
    cam = CameraView.from_projection("c", IDENTITY_P, (640, 480))
    assert np.allclose(project(cam, [0.0, 0.0, 1.0]), [0.0, 0.0])
    assert np.allclose(project(cam, [2.0, 4.0, 2.0]), [1.0, 2.0])


def test_projection_degeneracies():
    cam = CameraView.from_projection("c", IDENTITY_P, (640, 480))
    with pytest.raises(DegenerateProjection):
        project(cam, [0.0, 0.0, 0.0])
    with pytest.raises(DegenerateProjection):
        project(cam, [0.0, 0.0, -1.0])


def test_camera_construction_invariants(rng):
    for _ in range(50):
        cam = random_camera(rng)
        # pseudo-inverse is a right inverse of P
        assert np.abs(cam.P @ cam.P_plus - np.eye(3)).max() < 1e-9
        # center is the null direction of P (rows normalized first)
        Pn = cam.P / np.linalg.norm(cam.P, axis=1, keepdims=True)
        assert np.abs(Pn @ hom(cam.center)).max() < 1e-9


def test_rank_deficient_rejected():
    P = np.zeros((3, 4))
    P[0, 0] = P[1, 1] = 1.0
    with pytest.raises(RankDeficientP):
        CameraView.from_projection("bad", P)


def test_back_project_identity_examples():
    cam = CameraView.from_projection("c", IDENTITY_P, (640, 480))
    ray = back_project(cam, [0.0, 0.0])
    assert np.allclose(ray.origin, 0.0)
    assert np.allclose(np.abs(ray.direction), [0.0, 0.0, 1.0])
    assert abs(np.linalg.norm(ray.direction) - 1.0) < 1e-12


def test_back_project_family_lies_on_ray(rng):
    # every homogeneous combination of P_plus x and the center maps onto the ray
    for _ in range(20):
        cam = random_camera(rng)
        X = frustum_point(rng, cam)
        uv = project(cam, X)
        ray = back_project(cam, uv)
        q = cam.P_plus @ hom(uv)
        for mu in (-3.0, -0.5, 0.0, 0.7, 2.0, 10.0):
            p = q + mu * hom(cam.center)
            if abs(p[3]) < 1e-9:
                continue
            assert point_to_ray_distance(p[:3] / p[3], ray) < 1e-9


def test_round_trip_through_ray(rng):
    # project -> back_project -> closest ray point -> project reproduces the pixel
    for _ in range(200):
        cam = random_camera(rng)
        X = frustum_point(rng, cam)
        uv = project(cam, X)
        ray = back_project(cam, uv)
        assert point_to_ray_distance(X, ray) < 1e-8
        s = float(np.dot(X - ray.origin, ray.direction))
        closest = ray.origin + s * ray.direction
        uv2 = project(cam, closest)
        assert np.linalg.norm(uv2 - uv) < 1e-8


def test_point_to_ray_distance_against_golden_section(rng):
    for _ in range(50):
        o = rng.uniform(-5, 5, size=3)
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        X = rng.uniform(-8, 8, size=3)
        ray = Ray3(o, d)
        got = point_to_ray_distance(X, ray)
        want = golden_min_distance(X, ray)
        assert abs(got - want) < 1e-7
    # exactly on the line, including behind the origin
    o = np.zeros(3)
    d = np.array([1.0, 0.0, 0.0])
    assert point_to_ray_distance([-4.0, 0.0, 0.0], Ray3(o, d)) < 1e-12


def test_epipolar_line_normalization_and_residual(rng):
    for _ in range(3):
        cams = [random_camera(rng, f"c{i}") for i in range(2)]
        F = fundamental_from_projections(cams[0], cams[1])
        for _ in range(1000):
            X = frustum_point(rng, cams[0])
            try:
                x1, x2 = project(cams[0], X), project(cams[1], X)
            except DegenerateProjection:
                continue
            l2 = epipolar_line(F, x1)
            assert abs(np.hypot(l2[0], l2[1]) - 1.0) < 1e-12
            assert point_to_line_distance(x2, l2) < 1e-6
            # algebraic residual with unit-Frobenius F
            assert abs(hom(x2) @ F @ hom(x1)) < 1e-6
            # swap consistency: transpose gives the reverse-direction line
            l1 = epipolar_line(F.T, x2)
            assert point_to_line_distance(x1, l1) < 1e-6


def test_epipolar_line_at_epipole():
    cams = [
        make_camera("a", (4.0, 0.0, 2.0)),
        make_camera("b", (0.0, 4.0, 2.0)),
    ]
    F = fundamental_from_projections(cams[0], cams[1])
    epipole_in_a = project(cams[0], cams[1].center)
    with pytest.raises(DegenerateLine):
        epipolar_line(F, epipole_in_a)


def test_fundamental_properties(rng):
    cams = [random_camera(rng, f"c{i}") for i in range(2)]
    F = fundamental_from_projections(cams[0], cams[1])
    assert abs(np.linalg.norm(F) - 1.0) < 1e-12
    s = np.linalg.svd(F, compute_uv=False)
    assert s[2] < 1e-9  # rank 2
    with pytest.raises(CoincidentCenters):
        fundamental_from_projections(cams[0], cams[0])


def test_fundamental_table_is_transpose_consistent(rng):
    cams = [random_camera(rng, f"c{i}") for i in range(4)]
    table = build_fundamental_table(cams)
    assert len(table) == 12
    for a in cams:
        for b in cams:
            if a.id == b.id:
                continue
            assert np.array_equal(table[(a.id, b.id)], table[(b.id, a.id)].T)


def test_project_points_matches_scalar(rng):
    cam = random_camera(rng)
    X = np.array([frustum_point(rng, cam) for _ in range(32)])
    uv, depth = project_points(cam, X)
    assert (depth > 0).all()
    for i in range(len(X)):
        assert np.allclose(uv[i], project(cam, X[i]), atol=1e-12)
