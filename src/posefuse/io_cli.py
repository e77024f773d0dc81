"""Line-delimited file formats and config parsing.

Every stream is one JSON object per line. Timestamps travel as decimal
strings with nine fractional digits so values survive write/read/write
byte-identically; floats elsewhere rely on the shortest round-trip repr.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .affinity import TrackerConfig
from .geometry import CameraView
from .tracker import AssignmentRecord, Detection, FrameBatch, StepResult
from .simulator import N_JOINTS, GroundTruth, ScenarioSpec


class ParseError(ValueError):
    """A file violated a wire format; message carries path/line/field context."""


def fmt_ts(t: float) -> str:
    return "%.9f" % t


# json.dumps builds a new encoder on every call with non-default arguments;
# this one holds configuration only and is never mutated
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps(obj) -> str:
    return _ENCODER.encode(obj)


def _loads(line: str, path: str, lineno: int) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{lineno}: invalid record: {e}") from None
    if not isinstance(obj, dict):
        raise ParseError(f"{path}:{lineno}: expected an object, got {type(obj).__name__}")
    return obj


def _field(obj: dict, key: str, path: str, lineno: int):
    if key not in obj:
        raise ParseError(f"{path}:{lineno}: missing field {key!r}")
    return obj[key]


def _camera_id(obj: dict, path: str, lineno: int) -> str:
    cid = _field(obj, "camera_id", path, lineno)
    if not isinstance(cid, str):
        raise ParseError(f"{path}:{lineno}: field 'camera_id' must be a string")
    return cid


def _parse_ts(raw, path: str, lineno: int, key: str = "timestamp") -> float:
    try:
        t = float(raw)
    except (TypeError, ValueError, OverflowError):
        t = math.nan
    if not math.isfinite(t):
        raise ParseError(f"{path}:{lineno}: field {key!r}: bad timestamp {raw!r}")
    return t


def _parse_int(raw, path: str, lineno: int, what: str) -> int:
    try:
        return int(raw)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"{path}:{lineno}: {what}: expected an integer, "
                         f"got {raw!r}") from None


def _parse_points(raw, path: str, lineno: int, what: str) -> np.ndarray:
    """A list of [X, Y, Z] number rows as an (n, 3) float array."""
    try:
        if isinstance(raw, list) and all(isinstance(r, list) and len(r) == 3
                                         for r in raw):
            return np.array([[float(x) for x in r] for r in raw]).reshape(-1, 3)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ParseError(f"{path}:{lineno}: {what}: expected a list of [X, Y, Z] rows")


def _check_joint_count(n: int, path: str, lineno: int, what: str) -> None:
    # evaluation indexes the simulator's skeleton joints
    if n != N_JOINTS:
        raise ParseError(f"{path}:{lineno}: {what}: has {n} joints, "
                         f"expected {N_JOINTS}")


# ---------------------------------------------------------------- calibration

def load_calibration(path: str) -> list[CameraView]:
    """Read one camera per line: {id, P: 12 row-major numbers, image_size}.
    A file with no camera is a ParseError."""
    cams: list[CameraView] = []
    seen = set()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            obj = _loads(line, path, lineno)
            cid = _field(obj, "id", path, lineno)
            if not isinstance(cid, str):
                raise ParseError(f"{path}:{lineno}: field 'id' must be a string")
            if cid in seen:
                raise ParseError(f"{path}:{lineno}: duplicate camera id {cid!r}")
            seen.add(cid)
            P = _field(obj, "P", path, lineno)
            if not isinstance(P, list) or len(P) != 12:
                raise ParseError(f"{path}:{lineno}: field 'P' must hold 12 numbers")
            if not all(type(v) in (int, float) for v in P):
                raise ParseError(f"{path}:{lineno}: field 'P' must hold JSON numbers, "
                                 f"got {P!r}")
            try:
                P_arr = np.array(P, dtype=float)
                finite = np.isfinite(P_arr).all()
            except OverflowError:  # an integer past float range
                finite = False
            if not finite:
                raise ParseError(f"{path}:{lineno}: field 'P' must hold finite numbers")
            size = _field(obj, "image_size", path, lineno)
            if not (isinstance(size, list) and len(size) == 2
                    and all(type(v) is int and v > 0 for v in size)):
                raise ParseError(f"{path}:{lineno}: field 'image_size' must be two "
                                 f"positive integers [w, h], got {size!r}")
            cams.append(CameraView.from_projection(cid, P_arr, tuple(size)))
    if not cams:
        raise ParseError(f"{path}: no cameras")
    return cams


def write_calibration(cams: list[CameraView], path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for c in cams:
            f.write(dumps({"id": c.id, "P": [float(v) for v in c.P.reshape(-1)],
                           "image_size": [c.image_size[0], c.image_size[1]]}) + "\n")


# -------------------------------------------------------------- detections

# the [x, y, confidence] row of a joint that is null or has a non-finite x or y
_MISSING_JOINT = (math.nan, math.nan, 0.0)


def parse_frame_line(line: str, path: str, lineno: int,
                     n_joints: int | None = None) -> FrameBatch:
    """One camera frame. Every detection must list the same number of
    joints: n_joints when given (the count of earlier frames of the same
    stream), else the first detection's.

    The values of all detections go into one flat list, which becomes one
    (M, K, 3) array of [x, y, confidence] rows; each Detection holds views
    of its rows. A joint that is null or has a non-finite x or y is a NaN
    row with confidence 0."""
    obj = _loads(line, path, lineno)
    cid = _camera_id(obj, path, lineno)
    t = _parse_ts(_field(obj, "timestamp", path, lineno), path, lineno)
    raw_dets = _field(obj, "detections", path, lineno)
    if not isinstance(raw_dets, list):
        raise ParseError(f"{path}:{lineno}: field 'detections' must be a list")
    if not raw_dets:
        return FrameBatch(cid, t, [])
    isfinite = math.isfinite
    flat: list[float] = []
    for i, rd in enumerate(raw_dets):
        if not isinstance(rd, dict) or "joints" not in rd:
            raise ParseError(f"{path}:{lineno}: detection {i} must carry 'joints'")
        joints = rd["joints"]
        if not isinstance(joints, list) or not joints:
            raise ParseError(f"{path}:{lineno}: detection {i}: 'joints' must be a "
                             "non-empty list")
        k = len(joints)
        if n_joints is None:
            n_joints = k
        elif k != n_joints:
            raise ParseError(f"{path}:{lineno}: detection {i}: field 'joints' has "
                             f"{k} entries, expected {n_joints}")
        for j, entry in enumerate(joints):
            if entry is None:
                flat += _MISSING_JOINT
                continue
            if not isinstance(entry, list) or len(entry) != 3:
                raise ParseError(f"{path}:{lineno}: detection {i} joint {j}: "
                                 "expected [x, y, confidence] or null")
            try:
                x, y, c = float(entry[0]), float(entry[1]), float(entry[2])
            except (TypeError, ValueError, OverflowError):
                raise ParseError(f"{path}:{lineno}: detection {i} joint {j}: "
                                 f"expected numbers, got {entry!r}") from None
            if not isfinite(c):
                raise ParseError(f"{path}:{lineno}: detection {i} joint {j}: "
                                 f"confidence {entry[2]!r} is not finite")
            flat += (x, y, c) if isfinite(x) and isfinite(y) else _MISSING_JOINT
    rows = np.array(flat).reshape(len(raw_dets), n_joints, 3)
    return FrameBatch(cid, t, [Detection(cid, t, r[:, :2], r[:, 2], index=i)
                               for i, r in enumerate(rows)])


def iter_detections(path: str):
    """Stream FrameBatch records without holding the file in memory."""
    n_joints = None
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if line.strip():
                frame = parse_frame_line(line, path, lineno, n_joints)
                if frame.detections:
                    n_joints = frame.detections[0].joints.shape[0]
                yield frame


def load_detections(path: str) -> list[FrameBatch]:
    return list(iter_detections(path))


def _finite_rows(values: np.ndarray, finite: np.ndarray) -> list:
    """values.tolist(), with None in place of each row whose flag in
    `finite` is false."""
    return [row if ok else None for row, ok in zip(values.tolist(), finite.tolist())]


def frame_record(frame: FrameBatch) -> dict:
    dets = [{"joints": _finite_rows(np.column_stack((d.joints, d.confidences)),
                                    np.isfinite(d.joints).all(axis=1))}
            for d in frame.detections]
    return {"camera_id": frame.camera_id, "timestamp": fmt_ts(frame.timestamp),
            "detections": dets}


def write_detections(frames: list[FrameBatch], path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for fr in frames:
            f.write(dumps(frame_record(fr)) + "\n")


# ------------------------------------------------------------------- tracks

@dataclass(frozen=True)
class TrackRow:
    timestamp: float
    targets: dict[int, np.ndarray]
    joint_times: dict[int, np.ndarray]


def track_record(step: StepResult) -> dict:
    """The wire record of one step: targets in id order, each joint [X, Y, Z]
    or None, each joint time a timestamp string or None.

    The poses' joints and joint times are checked for finiteness and turned
    into Python values in one pass each."""
    poses = sorted(step.poses, key=lambda p: p.id)
    targets = []
    if poses:
        xyz = np.concatenate([p.joints for p in poses], dtype=float)
        jt = np.concatenate([p.joint_times for p in poses], dtype=float)
        joints = _finite_rows(xyz, np.isfinite(xyz).all(axis=1))
        times = [fmt_ts(t) if ok else None
                 for t, ok in zip(jt.tolist(), np.isfinite(jt).tolist())]
        a = b = 0
        for p in poses:
            n, m = len(p.joints), len(p.joint_times)
            targets.append({"id": p.id, "joints": joints[a:a + n],
                            "joint_times": times[b:b + m]})
            a += n
            b += m
    return {"timestamp": fmt_ts(step.timestamp), "targets": targets}


def load_tracks(path: str) -> list[TrackRow]:
    """Track rows; every target must list the skeleton's N_JOINTS joints."""
    rows: list[TrackRow] = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            obj = _loads(line, path, lineno)
            t = _parse_ts(_field(obj, "timestamp", path, lineno), path, lineno)
            targets: dict[int, np.ndarray] = {}
            times: dict[int, np.ndarray] = {}
            raw_targets = _field(obj, "targets", path, lineno)
            if not isinstance(raw_targets, list):
                raise ParseError(f"{path}:{lineno}: field 'targets' must be a list")
            for tg in raw_targets:
                if not isinstance(tg, dict):
                    raise ParseError(f"{path}:{lineno}: each target must be an object")
                tid = tg.get("id")
                if not isinstance(tid, int):
                    raise ParseError(f"{path}:{lineno}: target id must be an integer")
                joints = tg.get("joints")
                if not isinstance(joints, list):
                    raise ParseError(f"{path}:{lineno}: target {tid}: bad 'joints'")
                _check_joint_count(len(joints), path, lineno, f"target {tid}")
                xyz = np.full((len(joints), 3), np.nan)
                jt = np.full(len(joints), np.nan)
                for j, entry in enumerate(joints):
                    if entry is None:
                        continue
                    if not isinstance(entry, list) or len(entry) != 3:
                        raise ParseError(f"{path}:{lineno}: target {tid} joint {j}: "
                                         "expected [X, Y, Z] or null")
                    try:
                        xyz[j] = [float(v) for v in entry]
                    except (TypeError, ValueError, OverflowError):
                        raise ParseError(f"{path}:{lineno}: target {tid} joint {j}: "
                                         f"expected numbers, got {entry!r}") from None
                raw_times = tg.get("joint_times") or []
                if not isinstance(raw_times, list) or len(raw_times) > len(joints):
                    raise ParseError(f"{path}:{lineno}: target {tid}: 'joint_times' "
                                     "must be a list with at most one entry per joint")
                for j, entry in enumerate(raw_times):
                    if entry is not None:
                        jt[j] = _parse_ts(entry, path, lineno, "joint_times")
                targets[tid] = xyz
                times[tid] = jt
            rows.append(TrackRow(t, targets, times))
    return rows


# -------------------------------------------------------------- ground truth

def write_truth(truth: GroundTruth, path: str) -> None:
    """Poses and detection identities, interleaved in stream order."""
    det_by_frame: dict[tuple[str, float], list[tuple[int, int]]] = {}
    for (cid, t, idx), pid in truth.det_person.items():
        det_by_frame.setdefault((cid, t), []).append((idx, pid))
    with open(path, "w", encoding="utf-8") as f:
        for cid, t, poses in truth.pose_frames:
            people = {str(pid): [[float(v) for v in row] for row in pose]
                      for pid, pose in poses.items()}
            f.write(dumps({"kind": "pose", "camera_id": cid,
                           "timestamp": fmt_ts(t), "people": people}) + "\n")
            for idx, pid in sorted(det_by_frame.get((cid, t), [])):
                f.write(dumps({"kind": "det", "camera_id": cid,
                               "timestamp": fmt_ts(t), "index": idx,
                               "person": pid}) + "\n")


def load_truth(path: str) -> GroundTruth:
    """Ground truth; every pose must hold the skeleton's N_JOINTS joints."""
    truth = GroundTruth(pose_frames=[], det_person={}, noise={})
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            obj = _loads(line, path, lineno)
            kind = _field(obj, "kind", path, lineno)
            cid = _camera_id(obj, path, lineno)
            t = _parse_ts(_field(obj, "timestamp", path, lineno), path, lineno)
            if kind == "pose":
                raw_people = _field(obj, "people", path, lineno)
                if not isinstance(raw_people, dict):
                    raise ParseError(f"{path}:{lineno}: field 'people' must be an object")
                people = {_parse_int(k, path, lineno, "person id"):
                          _parse_points(v, path, lineno, f"person {k}")
                          for k, v in raw_people.items()}
                for pid, pose in people.items():
                    _check_joint_count(len(pose), path, lineno, f"person {pid}")
                truth.pose_frames.append((cid, t, people))
            elif kind == "det":
                key = (cid, t, _parse_int(_field(obj, "index", path, lineno), path,
                                          lineno, "field 'index'"))
                truth.det_person[key] = _parse_int(_field(obj, "person", path, lineno),
                                                   path, lineno, "field 'person'")
            else:
                raise ParseError(f"{path}:{lineno}: unknown record kind {kind!r}")
    return truth


# -------------------------------------------------------------- assignments

def assignment_record(r: AssignmentRecord) -> dict:
    return {"camera_id": r.camera_id, "timestamp": fmt_ts(r.timestamp),
            "index": r.index, "target": r.target_id}


def load_assignments(path: str) -> list[AssignmentRecord]:
    out: list[AssignmentRecord] = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            obj = _loads(line, path, lineno)
            cid = _camera_id(obj, path, lineno)
            target = _field(obj, "target", path, lineno)
            if target is not None and not isinstance(target, int):
                raise ParseError(f"{path}:{lineno}: field 'target' must be an integer "
                                 "or null")
            out.append(AssignmentRecord(
                cid, _parse_ts(_field(obj, "timestamp", path, lineno), path, lineno),
                _parse_int(_field(obj, "index", path, lineno), path, lineno,
                           "field 'index'"),
                target))
    return out


# ------------------------------------------------------------------- config

_INT_KEYS = {"velocity_window", "min_views_init", "min_shared_joints",
             "max_exact_partition"}
_BOOL_KEYS = {"confidence_weighting"}
_TRUE = {"true", "1", "yes", "on"}
_FALSE = {"false", "0", "no", "off"}


def _coerce_config_value(key: str, val, path: str):
    if key in _BOOL_KEYS:
        if isinstance(val, bool):
            return val
        if isinstance(val, str) and val.lower() in _TRUE | _FALSE:
            return val.lower() in _TRUE
        raise ParseError(f"{path}: config key {key!r}: expected a boolean, got {val!r}")
    if key == "alpha2d_epi" and (val is None or
                                 (isinstance(val, str) and val.lower() in ("none", "null"))):
        return None
    try:
        num = float(val)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"{path}: config key {key!r}: not a number: {val!r}") from None
    if not math.isfinite(num):
        raise ParseError(f"{path}: config key {key!r}: not a finite number: {val!r}")
    if key in _INT_KEYS:
        if num != int(num):
            raise ParseError(f"{path}: config key {key!r}: expected an integer")
        return int(num)
    return num


def parse_config_text(text: str, path: str = "<config>") -> TrackerConfig:
    """Flat key=value lines or a single JSON object; keys are config fields."""
    raw: dict[str, object] = {}
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: invalid structured config: {e}") from None
        if not isinstance(obj, dict):
            raise ParseError(f"{path}: structured config must be an object")
        raw = obj
    else:
        for lineno, line in enumerate(text.splitlines(), 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ParseError(f"{path}:{lineno}: expected key=value")
            k, v = body.split("=", 1)
            raw[k.strip()] = v.strip()
    known = set(TrackerConfig.__dataclass_fields__)
    kwargs = {}
    for k, v in raw.items():
        if k not in known:
            raise ParseError(f"{path}: unknown config key {k!r}")
        kwargs[k] = _coerce_config_value(k, v, path)
    try:
        return TrackerConfig(**kwargs)
    except ValueError as e:
        raise ParseError(f"{path}: {e}") from None


def load_config(path: str) -> TrackerConfig:
    with open(path, encoding="utf-8") as f:
        return parse_config_text(f.read(), path)


def load_scenario(path: str) -> ScenarioSpec:
    with open(path, encoding="utf-8") as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: invalid scenario file: {e}") from None
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: scenario file must hold one object")
    return ScenarioSpec.from_dict(obj)
