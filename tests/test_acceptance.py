"""Release gate: every shipping criterion, end to end, at full tolerance.

Each test prints one [criterion N] PASS/FAIL line (visible with -s or on
failure) and asserts the same condition, so a plain pytest run is the gate.
The crossing-scene runs are shared between criteria 4 and 8 through a
module-level cache because both grade the same ten streams.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import random_rig
from oracles import (best_partition_total, brute_force_assignment_total,
                     epipolar_line, partition_objective, point_to_line_distance,
                     project)
from posefuse.affinity import TrackerConfig
from posefuse.assignment import hungarian_max, partition_cycle_consistent
from posefuse.cli import main
from posefuse.evaluation import (association_accuracy, framerate_sweep,
                                 mot_metrics, pcp, project_step_roots,
                                 run_tracker)
from posefuse.geometry import build_fundamental_table, fundamental_from_projections
from posefuse.bench import bench_baseline, bench_scene, bench_tracker
from posefuse.simulator import (ScenarioSpec, baseline_alg_s1, generate,
                                synchronized_groups)
from posefuse.tracker import triangulate

pytestmark = pytest.mark.acceptance


def report(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


# ---------------------------------------------------------------- criterion 1

def test_criterion_01_assignment_and_partition_match_bruteforce():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_a = 0.0
    for _ in range(1000):
        n, m = rng.integers(1, 8, size=2)
        a = rng.normal(0.0, 2.0, size=(n, m))
        a[rng.random((n, m)) < 0.15] = -np.inf
        got = sum(a[r, c] for r, c in hungarian_max(a))
        want = brute_force_assignment_total(a)
        if not np.isfinite(want):
            want = 0.0
        worst_a = max(worst_a, abs(got - want))
    worst_p = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        a = rng.normal(0.0, 1.0, size=(n, n))
        a = (a + a.T) / 2.0
        np.fill_diagonal(a, 0.0)
        forbid = rng.random((n, n)) < 0.1
        forbid = np.triu(forbid, 1)
        a[forbid | forbid.T] = -np.inf
        got = partition_objective(partition_cycle_consistent(a), a)
        want = best_partition_total(a)
        worst_p = max(worst_p, abs(got - want))
    elapsed = time.perf_counter() - t0
    ok = worst_a < 1e-9 and worst_p < 1e-9 and elapsed < 30.0
    report(1, ok, f"assignment err {worst_a:.2e}, partition err {worst_p:.2e}, "
                  f"{elapsed:.1f}s")
    assert worst_a < 1e-9
    assert worst_p < 1e-9
    assert elapsed < 30.0


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_noiseless_geometry_recovery():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst_pt = 0.0
    worst_epi = 0.0
    for _ in range(1000):
        cams = random_rig(rng, int(rng.integers(2, 7)))
        X = rng.uniform(-1.5, 1.5, size=3) * np.array([1.0, 1.0, 0.6])
        pix = [project(c, X) for c in cams]
        # the plain DLT rows x * p3 - p1 and y * p3 - p2 of every view
        C = np.concatenate([x[:, None] * c.P[2] - c.P[:2] for c, x in zip(cams, pix)])
        got = triangulate((C.T @ C)[None], np.full((1, 3), np.nan))[0]
        worst_pt = max(worst_pt, float(np.linalg.norm(got - X)))
        F = fundamental_from_projections(cams[0], cams[1])
        line = epipolar_line(F, pix[0])
        worst_epi = max(worst_epi, point_to_line_distance(pix[1], line))
    elapsed = time.perf_counter() - t0
    ok = worst_pt <= 1e-8 and worst_epi <= 1e-6 and elapsed < 10.0
    report(2, ok, f"point err {worst_pt:.2e} m, epipolar {worst_epi:.2e} px, "
                  f"{elapsed:.1f}s")
    assert worst_pt <= 1e-8
    assert worst_epi <= 1e-6
    assert elapsed < 10.0


# ---------------------------------------------------------------- criterion 3

def test_criterion_03_clean_multicam_pipeline_is_perfect():
    t0 = time.perf_counter()
    cams, frames, truth = generate(ScenarioSpec(
        n_people=3, n_cameras=4, duration=20.0, seed=1234, fps=25.0,
        noise_sigma=0.0, dropout=0.0))
    series, records, _ = run_tracker(cams, frames)
    est = [(t, poses) for _, t, poses in series]
    score = pcp(est, truth).overall.score
    assoc = association_accuracy(records, truth.det_person)
    mot = mot_metrics(project_step_roots(series, cams, truth))
    ids = sum(s.ids for s in mot.per_camera.values())
    elapsed = time.perf_counter() - t0
    ok = (score == 100.0 and ids == 0 and elapsed < 10.0
          and all(v == 100.0 for v in assoc.per_camera.values()))
    report(3, ok, f"pcp={score}, assoc min={min(assoc.per_camera.values())}, "
                  f"ids={ids}, {elapsed:.1f}s")
    assert score == 100.0
    assert all(v == 100.0 for v in assoc.per_camera.values())
    assert ids == 0
    assert elapsed < 10.0


# ------------------------------------------------- crossing scene (4 and 8)

def ring_path(radius, laps, n_per_lap, phase, direction):
    n = n_per_lap * laps
    th = phase + direction * np.linspace(0.0, 2.0 * np.pi * laps, n + 1)
    return tuple((radius * float(np.cos(a)), radius * float(np.sin(a)))
                 for a in th)


def crossing_scene(seed):
    """Two people orbit concentric rings in opposite directions.

    Radii differ by 1.05 m, so every pass is a genuine crossing at just
    over 1 m separation, and the passes precess around the rig so every
    camera eventually sees one end-on.
    """
    r_in, laps, n = 0.525, 4, 16
    r_out = 3.0 * r_in
    length = laps * 2.0 * n * r_out * np.sin(np.pi / n)
    return generate(ScenarioSpec(
        n_people=2, n_cameras=5, duration=float(length / 0.4), seed=seed,
        fps=12.5, rig_height=1.2, noise_sigma=2.0, dropout=0.1,
        root_speed=0.4, swing_amplitude=0.55, swing_frequency=1.1,
        waypoints=(ring_path(r_out, laps, n, 0.0, +1.0),
                   ring_path(r_in, 3 * laps, n, np.pi, -1.0))))


_CROSSING_SEEDS = range(10)
_crossing_cache = {}


def crossing_stats(seed):
    if seed in _crossing_cache:
        return _crossing_cache[seed]
    cams, frames, truth = crossing_scene(seed)
    sep = min(
        float(np.linalg.norm(poses[0][[8, 9]].mean(0) - poses[1][[8, 9]].mean(0)))
        for _, _, poses in truth.pose_frames)
    series, records, _ = run_tracker(cams, frames)
    est = [(t, poses) for _, t, poses in series]
    pcp_track = pcp(est, truth).overall.score
    mot = mot_metrics(project_step_roots(series, cams, truth))
    ids = sum(s.ids for s in mot.per_camera.values())
    acc_default = association_accuracy(records, truth.det_person).overall
    _, records_2d, _ = run_tracker(cams, frames, TrackerConfig(w3d=0.0))
    acc_2d_only = association_accuracy(records_2d, truth.det_person).overall
    ftable = build_fundamental_table(cams)
    cfg = TrackerConfig()
    base_est = []
    for group in synchronized_groups(frames):
        stamp, poses, _ = baseline_alg_s1(group, cams, cfg, ftable)
        base_est.append((stamp, poses))
    pcp_base = pcp(base_est, truth).overall.score
    stats = {"min_sep": sep, "ids": ids, "pcp_track": pcp_track,
             "pcp_base": pcp_base, "acc_default": acc_default,
             "acc_2d_only": acc_2d_only}
    _crossing_cache[seed] = stats
    return stats


# ---------------------------------------------------------------- criterion 4

def test_criterion_04_noisy_crossing_keeps_identity_and_beats_baseline():
    rows = [crossing_stats(s) for s in _CROSSING_SEEDS]
    worst_ids = max(r["ids"] for r in rows)
    worst_margin = min(r["pcp_track"] - r["pcp_base"] for r in rows)
    sep_lo = min(r["min_sep"] for r in rows)
    ok = worst_ids == 0 and worst_margin >= 0.0 and sep_lo >= 1.0
    report(4, ok, f"ids max {worst_ids}, pcp margin min {worst_margin:+.2f}, "
                  f"min separation {sep_lo:.2f} m, {len(rows)} seeds")
    assert sep_lo >= 1.0
    assert worst_ids == 0
    assert worst_margin >= 0.0


# ---------------------------------------------------------------- criterion 5

def test_criterion_05_time_weighting_survives_low_framerates():
    acc = {n: {"w": [], "u": []} for n in (1, 3, 6, 12)}
    for seed in range(5):
        cams, frames, truth = generate(ScenarioSpec(
            n_people=1, n_cameras=10, duration=8.0, seed=seed, fps=50.0,
            noise_sigma=0.0, dropout=0.0,
            swing_amplitude=0.8, swing_frequency=1.4))
        for row in framerate_sweep(cams, frames, truth, (1, 3, 6, 12)):
            acc[row.n]["w"].append(row.pcp_weighted)
            acc[row.n]["u"].append(row.pcp_unweighted)
    w1, w12 = np.mean(acc[1]["w"]), np.mean(acc[12]["w"])
    u1, u12 = np.mean(acc[1]["u"]), np.mean(acc[12]["u"])
    drop_w, drop_u = w1 - w12, u1 - u12
    ok = w12 > u12 and drop_w <= 0.5 * drop_u
    report(5, ok, f"weighted@12 {w12:.2f} vs unweighted@12 {u12:.2f}, "
                  f"drops {drop_w:.2f} vs {drop_u:.2f}")
    assert w12 > u12
    assert drop_w <= 0.5 * drop_u


# ---------------------------------------------------------------- criterion 6

def test_criterion_06_tracker_scales_linearly_baseline_does_not():
    t0 = time.perf_counter()
    cam_counts = (4, 8, 16, 32)
    scenes = {n_cam: bench_scene(n_cam, 5, 1.2, seed=0)[:2] for n_cam in cam_counts}
    baseline_pf = {n_cam: bench_baseline(*scenes[n_cam], 5).per_frame_ms
                   for n_cam in (8, 32)}
    # An untimed pass per camera count first. The host's speed drifts for
    # seconds at a time, so each count is then timed by five tracker passes,
    # interleaved across the counts so that a slow phase spreads over all of
    # them, and the line is fitted to each count's median.
    for n_cam in cam_counts:
        bench_tracker(*scenes[n_cam], 5)
    passes = {n_cam: [] for n_cam in cam_counts}
    for _ in range(5):
        for n_cam in cam_counts:
            passes[n_cam].append(bench_tracker(*scenes[n_cam], 5).per_frame_ms)
    x = np.array(cam_counts, dtype=float)
    y = np.array([np.median(passes[n_cam]) for n_cam in cam_counts])
    coeffs = np.polyfit(x, y, 1)
    resid = y - np.polyval(coeffs, x)
    r2 = 1.0 - float((resid ** 2).sum()) / float(((y - y.mean()) ** 2).sum())
    elapsed = time.perf_counter() - t0
    ok = r2 >= 0.95 and baseline_pf[32] > 4.0 * baseline_pf[8] and elapsed < 120.0
    report(6, ok, f"R2={r2:.4f}, baseline 32cam {baseline_pf[32]:.0f} ms vs "
                  f"4x8cam {4 * baseline_pf[8]:.0f} ms, {elapsed:.0f}s; tracker ms "
                  "per frame by pass: " + "; ".join(
                      f"{n_cam}cam " + " ".join(f"{ms:.2f}" for ms in passes[n_cam])
                      for n_cam in cam_counts))
    assert r2 >= 0.95
    assert baseline_pf[32] > 4.0 * baseline_pf[8]
    assert elapsed < 120.0


# ---------------------------------------------------------------- criterion 7

def test_criterion_07_twelve_camera_grid_runs_realtime():
    cams, frames, _ = bench_scene(12, 4, 4.0, seed=0)
    # An untimed pass first, so that the result does not depend on whether
    # earlier tests warmed numpy and LAPACK. The host's speed drifts, so the
    # gate is the median of five passes, each with a fresh tracker and timing
    # tracker.step over the whole stream, initialization included.
    bench_tracker(cams, frames, 4)
    rows = [bench_tracker(cams, frames, 4) for _ in range(5)]
    fps = float(np.median([r.fps for r in rows]))
    ok = fps >= 100.0
    report(7, ok, f"median {fps:.0f} FPS; per pass FPS / p50 step: "
                  + ", ".join(f"{r.fps:.0f} / {r.p50_ms:.2f} ms" for r in rows))
    assert fps >= 100.0


# ---------------------------------------------------------------- criterion 8

def test_criterion_08_disabling_3d_term_costs_20_points():
    rows = [crossing_stats(s) for s in _CROSSING_SEEDS]
    gaps = [r["acc_default"] - r["acc_2d_only"] for r in rows]
    mean_gap = float(np.mean(gaps))
    ok = mean_gap >= 20.0
    report(8, ok, f"mean accuracy gap {mean_gap:.1f} pp over {len(gaps)} seeds, "
                  f"per-seed min {min(gaps):.1f}")
    assert mean_gap >= 20.0


# ---------------------------------------------------------------- criterion 9

def run_cli(*args):
    rc = main([str(a) for a in args])
    assert rc == 0, f"cli {args[0]} exited {rc}"


def read_tree(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_criterion_09_pipeline_is_byte_deterministic(tmp_path):
    spec = {"n_people": 2, "n_cameras": 3, "duration": 4.0, "seed": 77,
            "fps": 25.0, "noise_sigma": 2.0, "dropout": 0.1}
    spec_file = tmp_path / "scene.json"
    spec_file.write_text(json.dumps(spec))

    sim = [tmp_path / "sim_a", tmp_path / "sim_b"]
    for out in sim:
        run_cli("simulate", "--spec", spec_file, "--out-dir", out)
    assert read_tree(sim[0]) == read_tree(sim[1])

    outs = []
    for tag in ("x", "y"):
        tracks = tmp_path / f"tracks_{tag}.jsonl"
        assigns = tmp_path / f"assign_{tag}.jsonl"
        report_file = tmp_path / f"report_{tag}.json"
        run_cli("track",
                "--calib", sim[0] / "calibration.jsonl",
                "--input", sim[0] / "detections.jsonl",
                "--output", tracks, "--assignments", assigns)
        run_cli("evaluate",
                "--truth", sim[0] / "truth.jsonl",
                "--tracks", tracks,
                "--assignments", assigns,
                "--calib", sim[0] / "calibration.jsonl",
                "--mot", "--report", report_file)
        outs.append((tracks.read_bytes(), assigns.read_bytes(),
                     report_file.read_bytes()))
    ok = read_tree(sim[0]) == read_tree(sim[1]) and outs[0] == outs[1]
    report(9, ok, f"{len(outs[0])} artifact streams byte-identical across reruns")
    assert outs[0] == outs[1]
