"""Wire-format round trips and CLI behavior, including the full
simulate -> track -> evaluate pipeline on a noiseless scene."""

import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import orjson
import pytest

import oracles
import posefuse
from posefuse import bench, io_cli
from posefuse.affinity import TrackerConfig
from posefuse.cli import main
from posefuse.geometry import CameraView, RankDeficientP
from posefuse.simulator import N_JOINTS, InvalidSpec, ScenarioSpec, generate
from posefuse.tracker import AssignmentRecord, CrossViewTracker, FrameBatch, StepResult, \
    TargetPose


def scene(**kw):
    defaults = dict(n_people=2, n_cameras=3, duration=3.0, seed=7)
    defaults.update(kw)
    return generate(ScenarioSpec(**defaults))


def test_calibration_round_trip_is_byte_identical(tmp_path):
    cams, _, _ = scene()
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    io_cli.write_calibration(cams, str(p1))
    loaded = io_cli.load_calibration(str(p1))
    io_cli.write_calibration(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    for a, b in zip(cams, loaded):
        assert a.id == b.id and a.image_size == b.image_size
        assert np.array_equal(a.P, b.P)


def test_canonical_camera_parses_with_center_at_origin(tmp_path):
    P = [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0]
    p = tmp_path / "c.jsonl"
    p.write_text(json.dumps({"id": "c0", "P": P, "image_size": [640, 480]}) + "\n")
    cams = io_cli.load_calibration(str(p))
    assert len(cams) == 1
    assert np.allclose(cams[0].center, 0.0)


def test_duplicate_camera_id_is_a_parse_error(tmp_path):
    P = [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0]
    row = json.dumps({"id": "c0", "P": P, "image_size": [640, 480]})
    p = tmp_path / "c.jsonl"
    p.write_text(row + "\n" + row + "\n")
    with pytest.raises(io_cli.ParseError, match="duplicate camera id"):
        io_cli.load_calibration(str(p))


def test_short_projection_matrix_reports_line_and_field(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text(json.dumps({"id": "c0", "P": [1, 2, 3], "image_size": [640, 480]}) + "\n")
    with pytest.raises(io_cli.ParseError, match=r"c\.jsonl:1.*'P'"):
        io_cli.load_calibration(str(p))


def cli_env():
    """The environment for running posefuse in a child interpreter."""
    src = os.path.dirname(os.path.dirname(posefuse.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


@pytest.mark.parametrize("p0, width", [("1e400", "640"), ("NaN", "640"),
                                       ("1", "1e400")],
                         ids=["P-inf", "P-nan", "size-inf"])
def test_non_finite_calibration_is_a_parse_error(tmp_path, p0, width):
    # a child process with a timeout: without the check, an infinite P makes
    # the SVD in CameraView.from_projection loop forever
    calib = tmp_path / "c.jsonl"
    calib.write_text('{"id": "c0", "P": [%s, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0], '
                     '"image_size": [%s, 480]}\n' % (p0, width))
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    proc = subprocess.run([sys.executable, "-m", "posefuse.cli", "track", "--calib",
                           str(calib), "--input", str(empty), "--output",
                           str(tmp_path / "t.jsonl")], env=cli_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: ParseError: {calib}:1: ")
    assert proc.stderr.count("\n") == 1


P_EYE = "1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0"


@pytest.mark.parametrize("P, size, where", [
    (P_EYE, "0, 480", "'image_size'"),
    (P_EYE, "-5, 480", "'image_size'"),
    (P_EYE, "640.7, 480", "'image_size'"),
    (P_EYE, "true, 480", "'image_size'"),
    (P_EYE, '"640", 480', "'image_size'"),
    ('"1", 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0', "640, 480", "'P' must hold JSON numbers"),
    ("true, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0", "640, 480", "'P' must hold JSON numbers"),
    ("1" + "0" * 400 + ", 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0", "640, 480",
     "'P' must hold finite numbers"),
], ids=["size-zero", "size-negative", "size-fraction", "size-bool", "size-string",
        "P-string", "P-bool", "P-huge-int"])
def test_calibration_values_must_be_numbers_of_the_right_kind(tmp_path, P, size, where):
    p = tmp_path / "c.jsonl"
    good = '{"id": "c0", "P": [%s], "image_size": [640, 480]}\n' % P_EYE
    p.write_text(good.replace('"c0"', '"c1"') + '{"id": "c0", "P": [%s], '
                 '"image_size": [%s]}\n' % (P, size))
    with pytest.raises(io_cli.ParseError, match=r"c\.jsonl:2: field " + where):
        io_cli.load_calibration(str(p))


def test_rank_deficient_projection_is_rejected(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text(json.dumps({"id": "c0", "P": [0.0] * 12,
                             "image_size": [640, 480]}) + "\n")
    with pytest.raises(RankDeficientP):
        io_cli.load_calibration(str(p))


def test_detections_round_trip_is_byte_identical(tmp_path):
    _, frames, _ = scene(noise_sigma=2.0, dropout=0.2)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    io_cli.write_detections(frames, str(p1))
    loaded = io_cli.load_detections(str(p1))
    io_cli.write_detections(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    for fa, fb in zip(frames, loaded):
        assert fa.camera_id == fb.camera_id
        assert fa.timestamp == fb.timestamp
        for da, db in zip(fa.detections, fb.detections):
            assert np.array_equal(da.joints, db.joints, equal_nan=True)
            assert np.array_equal(da.confidences, db.confidences)


def test_truth_round_trip_is_byte_identical(tmp_path):
    _, _, truth = scene(dropout=0.1)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    io_cli.write_truth(truth, str(p1))
    loaded = io_cli.load_truth(str(p1))
    io_cli.write_truth(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.det_person == truth.det_person
    for (ca, ta, pa), (cb, tb, pb) in zip(truth.pose_frames, loaded.pose_frames):
        assert (ca, ta) == (cb, tb)
        for pid in pa:
            assert np.array_equal(pa[pid], pb[pid])


def rewrite_tracks(rows, path):
    with open(path, "w", encoding="utf-8") as f:
        for r in rows:
            poses = [TargetPose(tid, r.targets[tid], r.joint_times[tid])
                     for tid in sorted(r.targets)]
            rec = io_cli.track_record(StepResult("", r.timestamp, poses, [], []))
            f.write(io_cli.dumps(rec) + "\n")


def test_tracks_round_trip_is_byte_identical(tmp_path):
    cams, frames, _ = scene()
    tracker = CrossViewTracker(cams)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    with open(p1, "w", encoding="utf-8") as f:
        for fr in frames:
            f.write(io_cli.dumps(io_cli.track_record(tracker.step(fr))) + "\n")
    rows = io_cli.load_tracks(str(p1))
    rewrite_tracks(rows, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert any(r.targets for r in rows)


# One StepResult and one detection line with their wire forms written out by
# hand, so that a change of the format shows here whatever BLAS computes.
GOLDEN_STEP = StepResult("cam01", 2.04, [
    TargetPose(9, np.array([[0.1, -0.0, 1.5], [math.nan, 2.0, 3.0],
                            [1e16, 5e-324, -2.5e-7]]),
               np.array([2.04, math.nan, 1.999999999])),
    TargetPose(4, np.array([[math.inf, 0.0, 1.0], [-1.25, 0.75, 1.0 / 3.0]]),
               np.array([-0.0, 0.0])),
], [], [])
GOLDEN_TRACK_LINE = (
    '{"targets":[{"id":4,"joint_times":["-0.000000000","0.000000000"],'
    '"joints":[null,[-1.25,0.75,0.3333333333333333]]},'
    '{"id":9,"joint_times":["2.040000000",null,"1.999999999"],'
    '"joints":[[0.1,-0.0,1.5],null,[1e+16,5e-324,-2.5e-07]]}],'
    '"timestamp":"2.040000000"}')
GOLDEN_FRAME_LINE = (
    '{"camera_id": "cam02", "timestamp": "0.040000000", "detections": ['
    '{"joints": [[640.5, 360.25, 0.9], null, ["12", 1e400, 0.5]]}, '
    '{"joints": [[1, true, "0.25"], [-0.0, 5e-324, 0], [NaN, 2.0, 1.0]]}]}')
GOLDEN_JOINTS = [
    np.array([[640.5, 360.25], [math.nan, math.nan], [math.nan, math.nan]]),
    np.array([[1.0, 1.0], [-0.0, 5e-324], [math.nan, math.nan]]),
]
GOLDEN_CONFIDENCES = [np.array([0.9, 0.0, 0.0]), np.array([0.25, 0.0, 0.0])]
GOLDEN_FRAME_RECORD = (
    '{"camera_id":"cam02","detections":[{"joints":[[640.5,360.25,0.9],null,null]},'
    '{"joints":[[1.0,1.0,0.25],[-0.0,5e-324,0.0],null]}],"timestamp":"0.040000000"}')


def test_wire_format_matches_golden_literals():
    assert io_cli.dumps(io_cli.track_record(GOLDEN_STEP)) == GOLDEN_TRACK_LINE
    frame = io_cli.parse_frame_line(GOLDEN_FRAME_LINE, "golden.jsonl", 1)
    assert (frame.camera_id, frame.timestamp) == ("cam02", 0.04)
    assert [d.index for d in frame.detections] == [0, 1]
    for d, xy, conf in zip(frame.detections, GOLDEN_JOINTS, GOLDEN_CONFIDENCES):
        assert d.joints.tobytes() == xy.tobytes()
        assert d.confidences.tobytes() == conf.tobytes()
    assert io_cli.dumps(io_cli.frame_record(frame)) == GOLDEN_FRAME_RECORD


def assert_track_record_matches_oracle(step):
    assert io_cli.dumps(io_cli.track_record(step)) == \
        io_cli.dumps(oracles.track_record(step))


@pytest.mark.parametrize("rig", ["grid", "ring"])
def test_track_record_matches_per_row_oracle_on_tracker_output(rig):
    cams, frames, _ = scene(rig=rig, n_cameras=5, n_people=3, duration=2.0,
                            noise_sigma=2.0, dropout=0.3, seed=11)
    tracker = CrossViewTracker(cams)
    steps = [tracker.step(fr) for fr in frames]
    assert sum(len(s.poses) for s in steps) > 100
    assert any(not np.isfinite(p.joints).all() for s in steps for p in s.poses)
    for s in steps:
        assert_track_record_matches_oracle(s)


def test_track_record_matches_per_row_oracle_on_edge_cases():
    nan, inf = math.nan, math.inf
    rows = np.array([[1.0, nan, 2.0], [inf, 0.0, 1.0], [-inf, -inf, -inf],
                     [-0.0, 0.0, -0.0], [5e-324, 2.2250738585072014e-308, -5e-324],
                     [1e16, -1e16, 123456789.125], [0.1, 0.2, 0.3]])
    times = np.array([0.0, -0.0, nan, 1e-10, -1e-10, 12.5, 12.5])
    steps = [
        StepResult("c", 0.0, [], [], []),
        StepResult("c", -0.0, [TargetPose(5, rows, times),
                               TargetPose(2, rows[::-1], times[::-1]),
                               TargetPose(3, rows[:2], times[:1])], [], []),
        StepResult("c", 12.5, [TargetPose(1, rows[:3], np.array([nan] * 3)),
                               TargetPose(0, np.empty((0, 3)), np.empty(0))], [], []),
    ]
    for s in steps:
        assert_track_record_matches_oracle(s)


NON_FINITE = [math.nan, math.inf, -math.inf, "nan", "-nan", "inf", "-Infinity", "1e400"]
BAD_JOINTS = [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], "1,2,3", {"x": 1.0}, 7,
              [1.0, "abc", 0.5], [1.0, None, 0.5], [[1.0], 2.0, 0.5],
              [10 ** 400, 2.0, 0.5], [1.0, 2.0, math.nan], [1.0, 2.0, "-inf"]]


def fuzz_number(rng, v):
    """v as a float, an int, a numeric string (bare or padded) or a boolean."""
    form = rng.integers(5)
    if form == 0:
        return v
    if form == 1:
        return int(v)
    if form == 2:
        return repr(v)
    if form == 3:
        return f" {v!r} "
    return bool(int(v) % 2)


def fuzz_joint(rng, bad_rate):
    u = rng.random()
    if u < bad_rate:
        return BAD_JOINTS[rng.integers(len(BAD_JOINTS))]
    if u < 0.2:
        return None
    entry = [fuzz_number(rng, v) for v in (rng.uniform(-50.0, 700.0),
                                           rng.uniform(-50.0, 700.0),
                                           rng.uniform(0.0, 1.0))]
    if rng.random() < 0.15:
        entry[rng.integers(2)] = NON_FINITE[rng.integers(len(NON_FINITE))]
    return entry


def fuzz_frame_line(rng):
    """A detection line and its usual joint count; about one line in three
    may carry a malformed joint, and a rare detection has one joint too many."""
    bad_rate = 0.05 if rng.random() < 0.3 else 0.0
    k = int(rng.integers(1, 5))
    dets = []
    for _ in range(rng.integers(0, 5)):
        kk = k + 1 if rng.random() < 0.01 else k
        dets.append({"joints": [fuzz_joint(rng, bad_rate) for _ in range(kk)]})
    t = rng.uniform(0.0, 100.0)
    return json.dumps({"camera_id": f"cam{rng.integers(3):02d}",
                       "timestamp": "%.9f" % t if rng.random() < 0.5 else t,
                       "detections": dets}), k


def parse_outcome(parse, line, n_joints):
    try:
        return parse(line, "fuzz.jsonl", 7, n_joints)
    except io_cli.ParseError as e:
        return str(e)


def test_parse_frame_line_matches_per_joint_oracle_on_fuzzed_lines():
    rng = np.random.default_rng(5)
    parsed = failed = 0
    for _ in range(3000):
        line, k = fuzz_frame_line(rng)
        n_joints = None if rng.random() < 0.5 else k + int(rng.random() < 0.02)
        got = parse_outcome(io_cli.parse_frame_line, line, n_joints)
        want = parse_outcome(oracles.parse_frame_line, line, n_joints)
        if isinstance(want, str):
            failed += 1
            assert got == want
            continue
        parsed += 1
        assert_same_frame(got, want)
    assert parsed > 2000 and failed > 200


def assert_same_frame(got, want):
    assert isinstance(got, FrameBatch)
    assert (got.camera_id, got.timestamp) == (want.camera_id, want.timestamp)
    assert len(got.detections) == len(want.detections)
    for d, w in zip(got.detections, want.detections):
        assert (d.camera_id, d.timestamp, d.index) == (w.camera_id, w.timestamp,
                                                      w.index)
        assert d.joints.shape == w.joints.shape
        assert d.confidences.shape == w.confidences.shape
        assert d.joints.tobytes() == w.joints.tobytes()
        assert d.confidences.tobytes() == w.confidences.tobytes()


def random_doubles(rng, n, lo, hi):
    """n doubles of random sign, magnitudes log-uniform in [lo, hi)."""
    mag = np.clip(10.0 ** rng.uniform(np.log10(lo), np.log10(hi), n),
                  lo, np.nextafter(hi, 0.0))
    return np.where(rng.random(n) < 0.5, -mag, mag)


def test_orjson_prints_doubles_in_its_plain_range_as_repr():
    # dumps lets orjson write a record only when each of its floats is 0 or
    # has a magnitude in [1e-4, 1e16); an orjson that prints one of them
    # otherwise must fail here
    rng = np.random.default_rng(13)
    edges = [0.0, -0.0, 1e-4, -1e-4, float(np.nextafter(1e-4, 1.0)),
             float(np.nextafter(1e16, 0.0)), 1.0, 0.1, 1.0 / 3.0, 2.0 ** 53,
             2.0 ** 53 + 2.0, 123456789.125, 1e15]
    vals = edges + random_doubles(rng, 200_000, 1e-4, 1e16).tolist() \
        + (rng.integers(-2 ** 53, 2 ** 53, 20_000) * 1.0).tolist()
    got = orjson.dumps(vals).decode()[1:-1].split(",")
    assert len(got) == len(vals)
    assert [(v, g) for v, g in zip(vals, got) if g != repr(v)][:5] == []


STDLIB_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
# integers orjson writes, and integers past 64 bits that it refuses
INTS_64 = [0, -1, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1, -2 ** 63]
INTS_PAST_64 = [2 ** 64, 2 ** 64 + 1, -2 ** 63 - 1, 10 ** 25]
# camera ids orjson writes as json does (control characters, quotes and
# backslashes escaped alike), and ids it writes otherwise
PLAIN_CAMERA_IDS = ["cam00", 'c"a\\m/', "tab\tnl\n\x01\x1f", " ~", ""]
ODD_CAMERA_IDS = ["cam\u00e9", "\u6444\u50cf", "del\x7f", "\ud800"]
ODD_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-5, 1e-6,
              float(np.nextafter(1e-4, 0.0)), 1e-4, 1e16, -1e16,
              float(np.nextafter(1e16, 0.0)), 1e300, 1.7976931348623157e308,
              math.nan, math.inf, -math.inf]
# finite, nonzero and outside [1e-4, 1e16): most print otherwise in orjson
NEAR_FLOATS = [float(np.nextafter(1e-4, 0.0)), 1e-5, -1e-6, 1e-7, 3.5e-9, 2.5e-8,
               1e-10, 5e-324, 1e16, -3e16, 1e17, 1e22, 1e300]


def random_track_step(rng, kind):
    """A StepResult whose track record orjson may write ("plain"), one with
    a single value just outside what it may write ("near"), or one that
    draws from every kind of value ("any")."""
    poses = []
    for _ in range(rng.integers(1 if kind == "near" else 0, 4)):
        n = int(rng.integers(1, 6))
        if kind == "any":
            xyz = random_doubles(rng, 3 * n, 1e-320, 1e300)
            odd = rng.random(3 * n) < 0.3
            xyz[odd] = rng.choice(ODD_FLOATS, int(odd.sum()))
        else:
            xyz = random_doubles(rng, 3 * n, 1e-4, 1e16)
            xyz[rng.random(3 * n) < 0.05] = rng.choice([0.0, -0.0])
        xyz = xyz.reshape(n, 3)
        # rows with a non-finite value are written as null
        gone = np.flatnonzero(rng.random(n) < 0.3)
        xyz[gone, rng.integers(3, size=len(gone))] = rng.choice(
            [math.nan, math.inf, -math.inf], len(gone))
        times = rng.choice([0.0, -0.0, math.nan, 2.5, rng.uniform(-1e3, 1e3)], n)
        ids = INTS_PAST_64 if kind == "any" and rng.random() < 0.5 else INTS_64
        tid = ids[rng.integers(len(ids))] if rng.random() < 0.5 else int(rng.integers(1000))
        poses.append(TargetPose(tid, xyz, times))
    if kind == "near":
        xyz = poses[rng.integers(len(poses))].joints
        r = rng.integers(len(xyz))
        xyz[r] = random_doubles(rng, 3, 1e-4, 1e16)
        xyz[r, rng.integers(3)] = NEAR_FLOATS[rng.integers(len(NEAR_FLOATS))]
    return StepResult("cam00", float(rng.uniform(0.0, 100.0)), poses, [], [])


def random_assignment(rng, plain):
    if plain:
        cids, ints = PLAIN_CAMERA_IDS, INTS_64
    else:
        cids, ints = PLAIN_CAMERA_IDS + ODD_CAMERA_IDS, INTS_64 + INTS_PAST_64
    target = None if rng.random() < 0.3 else ints[rng.integers(len(ints))]
    return AssignmentRecord(cids[rng.integers(len(cids))], float(rng.uniform(0, 100)),
                            ints[rng.integers(len(ints))], target)


class CountingEncoder:
    """The stdlib encoder, counting the records dumps hands it."""

    def __init__(self):
        self.calls = 0

    def encode(self, obj):
        self.calls += 1
        return STDLIB_ENCODER.encode(obj)


def test_dumps_writes_track_and_assignment_records_as_the_stdlib_encoder(monkeypatch):
    encoder = CountingEncoder()
    monkeypatch.setattr(io_cli, "_ENCODER", encoder)
    rng = np.random.default_rng(17)
    fell_back = 0
    for i in range(5000):
        kind = ("plain", "near", "any")[i % 3]
        record = (io_cli.track_record(random_track_step(rng, kind)) if i % 2
                  else io_cli.assignment_record(random_assignment(rng, kind == "plain")))
        before = encoder.calls
        assert io_cli.dumps(record) == STDLIB_ENCODER.encode(record)
        if kind == "plain":  # took the orjson path
            assert encoder.calls == before
        fell_back += encoder.calls - before
    assert 1500 < fell_back < 3300
    # the golden line holds 1e+16 and -2.5e-07
    before = encoder.calls
    assert io_cli.dumps(io_cli.track_record(GOLDEN_STEP)) == GOLDEN_TRACK_LINE
    assert encoder.calls == before + 1


def stdlib_outcome(line, n_joints):
    """parse_frame_line's outcome on a line decoded by json alone."""
    try:
        return io_cli._frame(io_cli._loads(line, "fuzz.jsonl", 7), "fuzz.jsonl", 7,
                             n_joints)
    except io_cli.ParseError as e:
        return str(e)


def crafted_line(joints, t='"0.5"', camera='"cam00"'):
    return ('{"camera_id": %s, "timestamp": %s, "detections": [{"joints": %s}]}'
            % (camera, t, joints))


BIG = ["18446744073709551616", "-9223372036854775809", "10000000000000000000000000",
       str(2 ** 1024 - 2 ** 970 - 1), str(2 ** 1024 - 2 ** 970), "1" + "0" * 400]
CRAFTED_LINES = [
    crafted_line("[[NaN, 1.0, 0.5], [1.0, 2.0, 0.5]]"),
    crafted_line("[[1e400, -1e400, 0.5], [2e308, 2.0, 0.5]]"),
    crafted_line("[[1.0, 2.0, 1e400], [1.0, 2.0, 0.5]]"),
    crafted_line("[[-0, -0.0, 0], [0, 0.0, -0]]"),
    crafted_line("[[1.0, 2.0, 0.5], null]", camera='"\\ud800"'),
    crafted_line("[[1.0, 2.0, 0.5], null]", camera='"cam\\u00e9"'),
    crafted_line("[[1.0, 2.0, 0.5], null]", t=BIG[2]),
    crafted_line("[[1.0, 2.0, 0.5], null]", t=BIG[4]),
    crafted_line("[[1.0, 2.0, 0.5], null]", t="[%s]" % BIG[0]),
    crafted_line("[[1.0, 2.0, 0.5], null]", camera=BIG[1]),
    '{"camera_id": "cam00", "timestamp": "0.5", "detections": [%s]}' % BIG[0],
    '{"camera_id": "cam00", "timestamp": "0.5", "detections": %s}' % BIG[2],
    BIG[2], "[%s, 1.5]" % BIG[0], '{"camera_id": ', "",
    *(crafted_line("[[%s, 2.0, 0.5], [1.0, %s, 0.25]]" % (b, b)) for b in BIG),
    *(crafted_line("[[%s, 2.0, 0.5], [1.0, \"abc\", 0.25]]" % b) for b in BIG),
    *(crafted_line("[[1.0, 2.0, 0.5], [%s, null, 0.25]]" % b) for b in BIG),
    *(crafted_line("[[1.0, 2.0, %s], [1.0, 2.0, 0.25]]" % b) for b in BIG),
    *(crafted_line("[[1.0, 2.0, 0.5]], \"x\": [%s]}, {\"joints\": [[1, 2]]" % b)
      for b in BIG),
]


def random_double_line(rng):
    """A well-formed line whose numbers are doubles of every magnitude, or
    integers up to 2**80."""
    vals = random_doubles(rng, 24, 1e-320, 1e300).tolist()
    vals = [int(rng.integers(2 ** 40)) * int(rng.integers(2 ** 40)) if rng.random() < 0.1
            else v for v in vals]
    joints = [vals[i:i + 3] for i in range(0, 24, 3)]
    return json.dumps({"camera_id": "cam01", "timestamp": "%.9f" % rng.uniform(0, 9),
                       "detections": [{"joints": joints[:4]}, {"joints": joints[4:]}]})


def test_parse_frame_line_decodes_as_the_stdlib_path():
    rng = np.random.default_rng(19)
    lines = CRAFTED_LINES + [random_double_line(rng) for _ in range(500)] \
        + [fuzz_frame_line(rng)[0] for _ in range(1500)]
    by_orjson = 0
    for line in lines:
        for n_joints in (None, 2, 4):
            got = parse_outcome(io_cli.parse_frame_line, line, n_joints)
            want = stdlib_outcome(line, n_joints)
            if isinstance(want, str):
                assert got == want
                continue
            assert_same_frame(got, want)
            try:
                by_orjson += isinstance(orjson.loads(line), dict)
            except orjson.JSONDecodeError:
                pass
    assert by_orjson > 3000


def test_config_key_value_text():
    cfg = io_cli.parse_config_text(
        "alpha2d = 45 # px per second\n\nw2d=0.5\nvelocity_window = 6\n"
        "confidence_weighting = true\nalpha2d_epi = none\n")
    assert cfg.alpha2d == 45.0
    assert cfg.w2d == 0.5
    assert cfg.velocity_window == 6
    assert cfg.confidence_weighting is True
    # the none sentinel derives the epipolar gate from alpha2d
    assert cfg.alpha2d_epi == pytest.approx(22.5)
    assert cfg.w3d == TrackerConfig().w3d


def test_config_structured_object():
    cfg = io_cli.parse_config_text('{"lambda_t": 12.5, "min_views_init": 3}')
    assert cfg.lambda_t == 12.5
    assert cfg.min_views_init == 3


@pytest.mark.parametrize("text, pattern", [
    ("alpha2dd = 45\n", "unknown config key"),
    ("velocity_window = 2.5\n", "expected an integer"),
    ("confidence_weighting = maybe\n", "expected a boolean"),
    ("alpha2d\n", "expected key=value"),
    ('{"w2d": "fast"}', "not a number"),
    ("velocity_window = inf\n", "not a finite number"),
    ("velocity_window = nan\n", "not a finite number"),
    ("max_exact_partition = 1e400\n", "not a finite number"),
    ("alpha2d = nan\n", "not a finite number"),
    ("w2d = nan\n", "not a finite number"),
    ("lambda_a = nan\n", "not a finite number"),
    ("retire_after = nan\n", "not a finite number"),
    ("match_threshold = -inf\n", "not a finite number"),
    ('{"velocity_window": 1e400}', "not a finite number"),
    ('{"max_exact_partition": -1e400}', "not a finite number"),
    ('{"retire_after": NaN}', "not a finite number"),
    ('{"match_threshold": NaN}', "not a finite number"),
    ('{"alpha2d": Infinity}', "not a finite number"),
    pytest.param('{"velocity_window": 1%s}' % ("0" * 400), "not a number",
                 id="json-integer-past-float-range"),
])
def test_config_rejects_bad_input(text, pattern):
    with pytest.raises(io_cli.ParseError, match=pattern):
        io_cli.parse_config_text(text)


def test_scenario_file_loads_and_validates(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"n_people": 1, "n_cameras": 2, "duration": 1.0}))
    spec = io_cli.load_scenario(str(p))
    assert spec.n_people == 1
    p.write_text(json.dumps({"n_peple": 1}))
    with pytest.raises(InvalidSpec):
        io_cli.load_scenario(str(p))
    p.write_text("[1, 2]")
    with pytest.raises(io_cli.ParseError):
        io_cli.load_scenario(str(p))


@pytest.mark.parametrize("body, message", [
    ('{"duration": NaN}', "duration must be a finite number"),
    ('{"fps": NaN}', "fps must be a finite number"),
    ('{"duration": Infinity}', "duration must be a finite number"),
    ('{"noise_sigma": NaN}', "noise_sigma must be a finite number"),
    ('{"dropout": -Infinity}', "dropout must be a finite number"),
    ('{"duration": 1%s}' % ("0" * 400), "duration must be a finite number"),
    ('{"n_people": 2.5}', "n_people must be an integer"),
    ('{"n_people": 1e400}', "n_people must be an integer"),
    ('{"n_people": true}', "n_people must be an integer"),
    ('{"seed": 1.5}', "seed must be an integer"),
    ('{"seed": -1}', "seed must be nonnegative"),
    ('{"n_cameras": "3"}', "n_cameras must be an integer"),
    ('{"area": 5}', "area must be two finite numbers"),
    ('{"walk_bounds": [1, NaN]}', "walk_bounds must be two finite numbers"),
    ('{"image_size": [0, 720]}', "image_size must be two positive integers"),
    ('{"image_size": [1280.5, 720]}', "image_size must be two positive integers"),
    ('{"phase_offsets": [0, NaN, 0, 0]}', "phase_offsets must be finite numbers"),
    ('{"n_people": 1, "waypoints": [[]]}', "waypoints must be lists"),
    ('{"n_people": 1, "waypoints": [[1]]}', "waypoints must be lists"),
    ('{"bone_lengths": {"head": 0.3}}', "bone_lengths must give a finite number"),
])
def test_simulate_rejects_bad_scenario_values(tmp_path, capsys, body, message):
    spec = tmp_path / "s.json"
    spec.write_text(body)
    assert main(["simulate", "--spec", str(spec), "--out-dir",
                 str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidSpec: " + message)
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def write_scene_files(tmp_path, **kw):
    spec = tmp_path / "scene.json"
    body = dict(n_people=2, n_cameras=3, duration=3.0, seed=7)
    body.update(kw)
    spec.write_text(json.dumps(body))
    out = tmp_path / "scene"
    assert main(["simulate", "--spec", str(spec), "--out-dir", str(out)]) == 0
    return out / "calibration.jsonl", out / "detections.jsonl", out / "truth.jsonl"


def test_pipeline_noiseless_scores_perfectly(tmp_path):
    calib, dets, truth = write_scene_files(tmp_path)
    tracks = tmp_path / "tracks.jsonl"
    assign = tmp_path / "assign.jsonl"
    assert main(["track", "--calib", str(calib), "--input", str(dets),
                 "--output", str(tracks), "--assignments", str(assign)]) == 0
    report = tmp_path / "report.json"
    assert main(["evaluate", "--truth", str(truth), "--tracks", str(tracks),
                 "--report", str(report), "--assignments", str(assign),
                 "--mot", "--calib", str(calib)]) == 0
    rep = json.loads(report.read_text())
    assert rep["pcp"]["overall"]["score"] == 100.0
    assert all(v == 100.0 for v in rep["association_accuracy"]["per_camera"].values())
    assert rep["mot"]["overall"]["ids"] == 0


def test_track_is_deterministic_across_runs(tmp_path):
    calib, dets, _ = write_scene_files(tmp_path, noise_sigma=1.0, dropout=0.1)
    outs = []
    for name in ("t1.jsonl", "t2.jsonl"):
        out = tmp_path / name
        assert main(["track", "--calib", str(calib), "--input", str(dets),
                     "--output", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_track_empty_input_gives_empty_output(tmp_path):
    calib, _, _ = write_scene_files(tmp_path)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "out.jsonl"
    assert main(["track", "--calib", str(calib), "--input", str(empty),
                 "--output", str(out)]) == 0
    assert out.read_bytes() == b""


def test_track_pipes_stdin_to_stdout(tmp_path, monkeypatch, capsys):
    calib, dets, _ = write_scene_files(tmp_path)
    content = dets.read_text()
    n_lines = content.count("\n")
    monkeypatch.setattr(sys, "stdin", io.StringIO(content))
    assert main(["track", "--calib", str(calib)]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == n_lines
    first = json.loads(out.splitlines()[0])
    assert set(first) == {"timestamp", "targets"}


def test_track_missing_calibration_exits_nonzero(tmp_path, capsys):
    assert main(["track", "--calib", str(tmp_path / "nope.jsonl")]) == 2
    assert "error" in capsys.readouterr().err


def test_track_malformed_line_reports_location(tmp_path, capsys):
    calib, dets, _ = write_scene_files(tmp_path)
    bad = tmp_path / "bad.jsonl"
    lines = dets.read_text().splitlines()
    bad.write_text("\n".join(lines[:2] + ["{not json"] + lines[2:]) + "\n")
    out = tmp_path / "out.jsonl"
    assert main(["track", "--calib", str(calib), "--input", str(bad),
                 "--output", str(out)]) == 2
    assert ":3:" in capsys.readouterr().err


def test_track_closes_its_files_when_one_cannot_be_opened(tmp_path, capsys):
    calib, dets, _ = write_scene_files(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(["track", "--calib", str(calib), "--input", str(dets),
                     "--output", str(tmp_path / "out.jsonl"), "--assignments",
                     str(tmp_path / "no" / "such" / "a.jsonl")]) == 2
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert "error" in capsys.readouterr().err


def test_evaluate_framerate_sweep_writes_tsv(tmp_path):
    calib, dets, truth = write_scene_files(tmp_path, duration=2.0)
    tracks = tmp_path / "tracks.jsonl"
    assert main(["track", "--calib", str(calib), "--input", str(dets),
                 "--output", str(tracks)]) == 0
    report = tmp_path / "report.json"
    assert main(["evaluate", "--truth", str(truth), "--tracks", str(tracks),
                 "--report", str(report), "--framerate-sweep", "1,3",
                 "--calib", str(calib), "--input", str(dets)]) == 0
    rep = json.loads(report.read_text())
    assert [r["n"] for r in rep["framerate_sweep"]] == [1, 3]
    tsv = (tmp_path / "report.json.tsv").read_text().splitlines()
    assert tsv[0].startswith("n\t")
    assert len(tsv) == 3


@pytest.mark.parametrize("divisors", ["0", "-3", "2,0"])
def test_evaluate_framerate_sweep_rejects_divisors_below_1(tmp_path, capsys, divisors):
    calib, dets, truth = write_scene_files(tmp_path, duration=0.4)
    tracks = tmp_path / "tracks.jsonl"
    assert main(["track", "--calib", str(calib), "--input", str(dets),
                 "--output", str(tracks)]) == 0
    report = tmp_path / "report.json"
    assert main(["evaluate", "--truth", str(truth), "--tracks", str(tracks),
                 "--report", str(report), "--framerate-sweep", divisors,
                 "--calib", str(calib), "--input", str(dets)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError: ") and err.count("\n") == 1
    assert "at least 1" in err
    assert not report.exists() and not (tmp_path / "report.json.tsv").exists()


@pytest.mark.parametrize("command, calib_lines, message", [
    ("track", 0, ": no cameras"),
    ("track", "blank", ": no cameras"),
    ("mot", 0, ": no cameras"),
    ("sweep", 0, ": no cameras"),
    ("mot", 2, ": no camera 'cam02', which "),
    ("mot", 1, ": no camera 'cam01', which "),
], ids=["track-empty", "track-blank-lines", "mot-empty", "sweep-empty",
        "mot-lacks-cam02", "mot-lacks-cam01"])
def test_empty_or_incomplete_calibration_is_a_parse_error(tmp_path, capsys, command,
                                                          calib_lines, message):
    calib, dets, truth = write_scene_files(tmp_path, duration=0.4)
    tracks = tmp_path / "tracks.jsonl"
    assert main(["track", "--calib", str(calib), "--input", str(dets),
                 "--output", str(tracks)]) == 0
    bad = tmp_path / "bad_calib.jsonl"
    kept = calib.read_text().splitlines(keepends=True)
    bad.write_text("\n \n" if calib_lines == "blank" else "".join(kept[:calib_lines]))
    if command == "track":
        args = ["track", "--input", str(dets), "--output", str(tmp_path / "t.jsonl")]
    else:
        args = ["evaluate", "--truth", str(truth), "--tracks", str(tracks),
                "--report", str(tmp_path / "report.json")]
        args += ["--mot"] if command == "mot" else ["--framerate-sweep", "1",
                                                    "--input", str(dets)]
    assert main(args + ["--calib", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: ParseError: {bad}{message}")
    assert err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("case", ["w2d-zero", "scaled-P"])
def test_far_off_joint_never_gives_a_nan_target_affinity(tmp_path, capsys, case):
    """Joint 0 of every detection of one frame at the finite pixel
    (1.7e308, 1.7e308). With w2d = 0 its 2D term is 0 * inf; with every P
    scaled by 1e-6, which leaves the cameras as they were, its ray overflows
    and the 3D term is inf / inf. Either NaN must make the pair impossible
    instead of reaching the assignment."""
    calib, dets, _ = write_scene_files(tmp_path, n_people=4, n_cameras=12, rig="grid",
                                       fps=25.0, duration=0.5, seed=11)
    lines = dets.read_text().splitlines(keepends=True)
    frame = json.loads(lines[50])
    for d in frame["detections"]:
        d["joints"][0] = [1.7e308, 1.7e308, 1.0]
    lines[50] = json.dumps(frame) + "\n"
    dets.write_text("".join(lines))
    if case == "w2d-zero":
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"w2d": 0}')
        extra = ["--config", str(cfg)]
    else:
        rows = [json.loads(line) for line in calib.read_text().splitlines()]
        for row in rows:
            row["P"] = [v * 1e-6 for v in row["P"]]
        calib = tmp_path / "scaled.jsonl"
        calib.write_text("".join(json.dumps(row) + "\n" for row in rows))
        extra = []
    tracks = tmp_path / "tracks.jsonl"
    assert main(["track", "--calib", str(calib), "--input", str(dets),
                 "--output", str(tracks)] + extra) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert len(tracks.read_text().splitlines()) == len(lines)


def test_bench_emits_csv_rows(tmp_path, capsys):
    assert main(["bench", "--cameras", "2,3", "--people", "1",
                 "--duration", "0.4", "--baseline"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == bench.BENCH_HEADER
    rows = [line.split(",") for line in out[1:]]
    assert len(rows) == 4
    assert [r[0] for r in rows] == ["tracker", "baseline"] * 2
    assert all(float(r[7]) > 0 for r in rows)


def test_assignments_file_round_trips(tmp_path):
    calib, dets, truth = write_scene_files(tmp_path)
    assign = tmp_path / "assign.jsonl"
    assert main(["track", "--calib", str(calib), "--input", str(dets),
                 "--output", str(tmp_path / "t.jsonl"),
                 "--assignments", str(assign)]) == 0
    recs = io_cli.load_assignments(str(assign))
    truth_obj = io_cli.load_truth(str(truth))
    assert len(recs) == len(truth_obj.det_person)
    keys = {(r.camera_id, r.timestamp, r.index) for r in recs}
    assert keys == set(truth_obj.det_person)


def frame_line(t, *dets):
    return json.dumps({"camera_id": "cam00", "timestamp": t,
                       "detections": [{"joints": j} for j in dets]})


J3 = [[10.0, 20.0, 0.9], None, [30.0, 40.0, 0.8]]


@pytest.mark.parametrize("lines, where", [
    ([frame_line("0.0", [[10.0, "abc", 0.9], None, None])],
     ":1: detection 0 joint 0: expected numbers"),
    ([frame_line("0.0", [[10 ** 400, 20.0, 0.9], None, None])],
     ":1: detection 0 joint 0: expected numbers"),
    ([frame_line("0.0", J3, J3[:2])],
     ":1: detection 1: field 'joints' has 2 entries, expected 3"),
    ([frame_line("0.0", J3), frame_line("0.04", J3 + [None])],
     ":2: detection 0: field 'joints' has 4 entries, expected 3"),
    ([frame_line("nan", J3)], ":1: field 'timestamp'"),
    ([frame_line("0.0", J3), frame_line("inf", J3)], ":2: field 'timestamp'"),
    ([frame_line("0.0", [[10.0, 20.0, float("nan")], None, None])],
     ":1: detection 0 joint 0: confidence"),
])
def test_malformed_detection_lines_are_parse_errors(tmp_path, capsys, lines, where):
    cams, _, _ = scene(duration=0.2)
    calib, bad = tmp_path / "calib.jsonl", tmp_path / "bad.jsonl"
    io_cli.write_calibration(cams, str(calib))
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(io_cli.ParseError, match="bad.jsonl" + where):
        io_cli.load_detections(str(bad))
    assert main(["track", "--calib", str(calib), "--input", str(bad),
                 "--output", str(tmp_path / "t.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError: ") and err.count("\n") == 1
    assert "bad.jsonl" + where in err


@pytest.mark.parametrize("case", ["config_rejected", "shared_center"])
def test_track_bad_setup_input_exits_2_naming_the_file(tmp_path, capsys, case):
    cams, frames, _ = scene(duration=0.2)
    calib, dets = tmp_path / "calib.jsonl", tmp_path / "dets.jsonl"
    io_cli.write_detections(frames, str(dets))
    args = ["track", "--calib", str(calib), "--input", str(dets),
            "--output", str(tmp_path / "t.jsonl")]
    if case == "config_rejected":
        io_cli.write_calibration(cams, str(calib))
        named = tmp_path / "bad.cfg"
        named.write_text("alpha2d = -1\n")
        args += ["--config", str(named)]
    else:
        named = calib
        io_cli.write_calibration(cams[:1] + [CameraView(
            "twin", cams[0].P, cams[0].P_plus, cams[0].center,
            cams[0].image_size)] + cams[1:], str(calib))
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError: " + str(named) + ": ")
    assert err.count("\n") == 1


def truth_line(people):
    return json.dumps({"kind": "pose", "camera_id": "cam00",
                       "timestamp": "0.000000000", "people": people})


def track_line(targets):
    return json.dumps({"timestamp": "0.000000000", "targets": targets})


def assignment_line(**kw):
    return json.dumps(dict({"camera_id": "cam00", "timestamp": "0.000000000",
                            "index": 0, "target": 0}, **kw))


POSE = [[0.1 * j, 0.0, 1.0 + 0.05 * j] for j in range(N_JOINTS)]
TARGET = {"id": 0, "joints": POSE, "joint_times": ["0.000000000"] * N_JOINTS}
VALID_EVALUATE_INPUTS = {
    "truth": truth_line({"0": POSE}) + "\n" + json.dumps(
        {"kind": "det", "camera_id": "cam00", "timestamp": "0.000000000",
         "index": 0, "person": 0}),
    "tracks": track_line([TARGET]),
    "assignments": assignment_line(),
}


@pytest.mark.parametrize("bad, content, where", [
    ("truth", truth_line({"x": POSE}), ":1: person id: expected an integer"),
    ("truth", truth_line([POSE]), ":1: field 'people' must be an object"),
    ("truth", truth_line({"0": [[0.0, 0.0], [0.1, 0.0]]}),
     ":1: person 0: expected a list of [X, Y, Z] rows"),
    ("truth", truth_line({"0": [[0.0, "a", 1.0]] * 3}),
     ":1: person 0: expected a list of [X, Y, Z] rows"),
    ("truth", truth_line({"0": POSE[:3]}),
     f":1: person 0: has 3 joints, expected {N_JOINTS}"),
    ("truth", json.dumps({"kind": "det", "camera_id": ["cam00"], "timestamp": "0.0",
                          "index": 0, "person": 0}),
     ":1: field 'camera_id' must be a string"),
    ("tracks", track_line(5), ":1: field 'targets' must be a list"),
    ("tracks", track_line([1]), ":1: each target must be an object"),
    ("tracks", track_line([dict(TARGET, joints=[[0.0, "a", 1.0]] + POSE[1:])]),
     ":1: target 0 joint 0: expected numbers"),
    ("tracks", track_line([dict(TARGET, joint_times=[None] * (N_JOINTS + 1))]),
     ":1: target 0: 'joint_times' must be a list with at most one entry per joint"),
    ("tracks", track_line([dict(TARGET, joints=POSE[:3], joint_times=[None] * 3)]),
     f":1: target 0: has 3 joints, expected {N_JOINTS}"),
    ("assignments", assignment_line(target=[0]),
     ":1: field 'target' must be an integer or null"),
    ("assignments", assignment_line(index="x"), ":1: field 'index': expected an integer"),
    ("assignments", assignment_line(camera_id=0), ":1: field 'camera_id' must be a string"),
], ids=["person-id", "people-list", "pose-pairs", "pose-text", "pose-joint-count",
        "truth-camera", "targets-number", "target-number", "joint-text",
        "joint-times-long", "target-joint-count", "assignment-target",
        "assignment-index", "assignment-camera"])
def test_malformed_evaluate_inputs_are_parse_errors(tmp_path, capsys, bad, content,
                                                    where):
    files = {}
    for kind, text in dict(VALID_EVALUATE_INPUTS, **{bad: content}).items():
        files[kind] = tmp_path / f"{kind}.jsonl"
        files[kind].write_text(text + "\n")
    load = {"truth": io_cli.load_truth, "tracks": io_cli.load_tracks,
            "assignments": io_cli.load_assignments}[bad]
    named = f"{bad}.jsonl" + where
    with pytest.raises(io_cli.ParseError, match=re.escape(named)):
        load(str(files[bad]))
    args = ["evaluate", "--report", str(tmp_path / "r.json")]
    for kind, path in files.items():
        args += [f"--{kind}", str(path)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError: ") and err.count("\n") == 1
    assert named in err


def test_cli_import_loads_no_scipy():
    # scipy.optimize alone cost most of `posefuse track` set-up; keep it out
    code = ("import sys, posefuse.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=cli_env(),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
