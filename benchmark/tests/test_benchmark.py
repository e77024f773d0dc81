"""Tests of the benchmark itself: span arithmetic, clutter, workload smoke runs.

    python3 -m pytest benchmark/tests
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import drive
import run
from spans import Span, Tracer, instrument_tracker, self_times
from workloads import WORKLOADS, add_ghosts, prepare

from posefuse import tracker as tracker_mod
from posefuse.simulator import ScenarioSpec, generate


def span(name, start, end, parent):
    s = Span(name, start, parent, 0, 0)
    s.end = end
    return s


def test_self_time_subtracts_children_and_their_overlap():
    spans = [
        span("frame", 0.0, 10.0, -1),
        span("parse", 0.0, 2.0, 0),
        span("step", 2.0, 9.0, 0),
        span("hungarian", 3.0, 4.0, 2),
        span("epipolar", 5.0, 7.0, 2),
        span("partition", 6.0, 8.0, 2),  # overlaps epipolar: covered once
        span("serialize", 9.0, 10.0, 0),
    ]
    assert self_times(spans) == pytest.approx([0.0, 2.0, 3.0, 1.0, 2.0, 2.0, 1.0])


def test_self_time_clips_children_to_parent():
    spans = [span("step", 1.0, 3.0, -1), span("late", 2.5, 4.0, 0)]
    assert self_times(spans) == pytest.approx([1.5, 1.5])


def test_tracer_nests_and_numbers_frames():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4 and outer(2) == 6
    assert [(s.name, s.parent, s.frame) for s in tracer.spans] == [
        ("outer", -1, 0), ("inner", 0, 0), ("outer", -1, 1), ("inner", 2, 1)]


def test_tracer_marks_failed_span_and_keeps_stack_balanced():
    tracer = Tracer()

    def boom(_):
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)([1, 2, 3])
    ok = tracer.wrap("ok", len)
    assert ok([1]) == 1
    assert [(s.name, s.failed, s.parent, s.work) for s in tracer.spans] == [
        ("boom", True, -1, 3), ("ok", False, -1, 1)]


def test_instrument_tracker_restores_module_names():
    before = {n: getattr(tracker_mod, n) for n in ("triangulate", "hungarian_max")}
    with instrument_tracker(Tracer()):
        assert tracker_mod.triangulate is not before["triangulate"]
    assert {n: getattr(tracker_mod, n) for n in before} == before


def small_scene(seed):
    spec = ScenarioSpec(n_people=2, n_cameras=4, duration=0.5, seed=seed)
    cams, frames, truth = generate(spec)
    return spec, frames, truth


def frames_as_arrays(frames):
    return [(f.camera_id, f.timestamp,
             [(d.index, d.joints.tobytes(), d.confidences.tobytes())
              for d in f.detections]) for f in frames]


def test_ghosts_are_deterministic_per_seed():
    spec, frames, _ = small_scene(3)
    a = add_ghosts(frames, spec.image_size, 1.0, seed=11)
    b = add_ghosts(frames, spec.image_size, 1.0, seed=11)
    c = add_ghosts(frames, spec.image_size, 1.0, seed=12)
    assert frames_as_arrays(a) == frames_as_arrays(b)
    assert frames_as_arrays(a) != frames_as_arrays(c)


def test_ghosts_follow_real_detections_inside_the_image():
    spec, frames, truth = small_scene(4)
    W, H = spec.image_size
    out = add_ghosts(frames, spec.image_size, 1.0, seed=5)
    n_ghosts = 0
    for before, after in zip(frames, out):
        n_real = len(before.detections)
        assert all(a is b for a, b in zip(after.detections, before.detections))
        for i, g in enumerate(after.detections[n_real:], n_real):
            n_ghosts += 1
            assert g.index == i and (g.camera_id, g.timestamp, i) not in truth.det_person
            vis = np.isfinite(g.joints).all(axis=1)
            assert vis.sum() >= 3
            assert ((g.joints[vis] >= 0) & (g.joints[vis] < [W, H])).all()
            assert (g.confidences[~vis] == 0).all()
    assert n_ghosts > 0


def test_declared_workloads_are_the_prepared_ones():
    assert [w["name"] for w in run.declared()["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_smoke(name, tmp_path):
    prepare(name, seed=2, directory=str(tmp_path), duration=0.3)
    spans_path = tmp_path / "spans.jsonl"
    raw = drive.measure(str(tmp_path), seconds=0.0, trace=True,
                        spans_path=str(spans_path))
    assert raw["correct"] and raw["cli_exit"] == 0
    assert raw["failed"] == 0 and raw["passes"] >= drive.MIN_PASSES
    assert raw["attempted"] == raw["passes"] * raw["frames_per_pass"]
    spec = run.declared()
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert declared - set(raw["metrics"]) == {"setup_s", *run.SETUP_LAYERS}
    assert raw["metrics"]["frame_p50_ms"] > 0 and raw["metrics"]["rig_fps"] > 0
    lines = spans_path.read_text().splitlines()
    assert len(lines) == raw["spans"] > 0
    first = json.loads(lines[0])
    assert first["name"] == "frame" and first["parent"] == -1


def test_launcher_fails_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "grid12", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
