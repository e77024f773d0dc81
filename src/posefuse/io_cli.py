"""Line-delimited file formats and config parsing.

Every stream is one JSON object per line. Timestamps travel as decimal
strings with nine fractional digits so values survive write/read/write
byte-identically; floats elsewhere rely on the shortest round-trip repr.

Every line reader decodes with orjson, and decodes again with the stdlib
json module a line that orjson rejects (NaN, a number past the float range,
a lone surrogate) or whose record raises ParseError, since orjson reads an
integer past 64 bits as a float; so values and messages are json's.
Writers use json, except that dumps lets orjson write a _Plain record,
whose values were checked, when it was made, to print under both alike:
- every float is 0, or finite with a magnitude in [1e-4, 1e16), where both
  print the shortest repr; orjson writes 1e-05 as 0.00001, 1e+16 as 1e16
  and NaN as null;
- every string is ASCII without DEL, which json escapes and orjson does
  not;
- every integer fits in 64 bits; past that orjson raises, and json writes
  the record.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np
import orjson

from .affinity import TrackerConfig
from .geometry import CameraView
from .tracker import AssignmentRecord, FrameBatch, StepResult
from .simulator import N_JOINTS, GroundTruth, ScenarioSpec


class ParseError(ValueError):
    """A file violated a wire format; message carries path/line/field context."""


def fmt_ts(t: float) -> str:
    return "%.9f" % t


# json.dumps builds a new encoder on every call with non-default arguments;
# this one holds configuration only and is never mutated
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class _Plain(dict):
    """A record whose builder checked that orjson writes it as _ENCODER
    does (see the module docstring)."""


def _plain_str(s) -> bool:
    return isinstance(s, str) and s.isascii() and "\x7f" not in s


def _plain_floats(a: np.ndarray) -> bool:
    """Whether orjson prints each of the finite values `a` as repr does."""
    if not a.size:
        return True
    a = np.abs(a)
    return bool(a.max() < 1e16 and (a.min() >= 1e-4 or ((a >= 1e-4) | (a == 0)).all()))


def dumps(obj) -> str:
    if type(obj) is _Plain:
        try:
            return orjson.dumps(obj, option=orjson.OPT_SORT_KEYS).decode()
        except orjson.JSONEncodeError:  # an integer past 64 bits
            pass
    return _ENCODER.encode(obj)


def _object(obj) -> dict:
    if not isinstance(obj, dict):
        raise ParseError(f"expected an object, got {type(obj).__name__}")
    return obj


def _loads(line: str) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid record: {e}") from None
    return _object(obj)


def _decode(line: str, convert, arg):
    """convert(obj, arg) for the JSON object on line, decoded by orjson, or
    by json where orjson rejects the line or convert raises ParseError."""
    try:
        return convert(_object(orjson.loads(line)), arg)
    except (orjson.JSONDecodeError, ParseError):
        return convert(_loads(line), arg)


def _call(obj: dict, convert):
    """convert(obj), for a one-argument convert passed through _decode."""
    return convert(obj)


def _field(obj: dict, key: str):
    if key not in obj:
        raise ParseError(f"missing field {key!r}")
    return obj[key]


def _str_field(obj: dict, key: str) -> str:
    v = _field(obj, key)
    if not isinstance(v, str):
        raise ParseError(f"field {key!r} must be a string")
    return v


def _parse_ts(raw, key: str = "timestamp") -> float:
    try:
        t = float(raw)
    except (TypeError, ValueError, OverflowError):
        t = math.nan
    if not math.isfinite(t) or isinstance(raw, bool):
        raise ParseError(f"field {key!r}: bad timestamp {raw!r}")
    return t


def _parse_int(raw, what: str) -> int:
    """A JSON integer: not a bool, a float or a string."""
    if type(raw) is not int:
        raise ParseError(f"{what}: expected an integer, got {raw!r}")
    return raw


def _person_id(key: str) -> int:
    """A `people` key: an integer's canonical decimal string, so that no
    two keys name one person."""
    try:
        pid = int(key)
    except ValueError:
        pid = key
    return _parse_int(pid if str(pid) == key else key, "person id")


# the types of the JSON values that float() may convert
_VALUE_TYPES = {int, float, str, bool}


def _rows(entries: list, missing: tuple | None) -> tuple[np.ndarray, int, int]:
    """The float rows of the entries ahead of the first malformed one, their
    count n, and the count of nulls among them. An entry is three JSON values
    that float() converts, or null: the row `missing`, or malformed where
    that is None. One np.array call converts every value as float() does;
    only on values it rejects does _convertible's float() pass run."""
    flat: list = []
    nulls = 0
    for entry in entries:
        if type(entry) is list and len(entry) == 3:
            flat += entry
        elif entry is None and missing is not None:
            flat += missing
            nulls += 1
        else:
            break
    n = len(flat) // 3
    try:
        a = np.array(flat, dtype=float)
    except (TypeError, ValueError, OverflowError):
        pass  # a value float() rejects, or a list among the values
    else:
        # np.array reads lists as one more dimension, and None as NaN: a
        # None is ruled out when the NaNs are the nulls' rows' alone, and
        # otherwise by a scan of the types, as a value may be NaN itself
        nans = nulls and nulls * sum(v != v for v in missing)
        if a.ndim == 1 and (np.count_nonzero(np.isnan(a)) == nans
                            or set(map(type, flat)) <= _VALUE_TYPES):
            return a.reshape(n, 3), n, nulls
    n = _convertible(flat)
    return np.array(flat[:3 * n], dtype=float).reshape(n, 3), n, nulls


def _convertible(flat: list) -> int:
    """The count of [a, b, c] rows of flat ahead of the first that float() rejects."""
    for i, v in enumerate(flat):
        try:
            float(v)
        except (TypeError, ValueError, OverflowError):
            return i // 3
    return len(flat) // 3


def _entry_error(entry, where: str, row: str) -> ParseError:
    """The error of the malformed entry `entry` of a list of `row` rows."""
    if type(entry) is list and len(entry) == 3:
        return ParseError(f"{where}: expected numbers, got {entry!r}")
    return ParseError(f"{where}: expected {row} or null")


def _parse_points(raw, what: str) -> np.ndarray:
    """A list of [X, Y, Z] number rows as an (n, 3) float array."""
    if isinstance(raw, list):
        rows, n, _ = _rows(raw, None)
        if n == len(raw):
            return rows
    raise ParseError(f"{what}: expected a list of [X, Y, Z] rows")


def _check_joint_count(n: int, what: str) -> None:
    # evaluation indexes the simulator's skeleton joints
    if n != N_JOINTS:
        raise ParseError(f"{what}: has {n} joints, expected {N_JOINTS}")


def _at(path: str, lineno: int, what) -> ParseError:
    """The error `what` (a message or a ParseError), naming the line first."""
    return ParseError(f"{path}:{lineno}: {what}")


def _records(path: str, convert):
    """convert(obj) for the JSON object on each non-blank line of path."""
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if line.strip():
                try:
                    record = _decode(line, _call, convert)
                except ParseError as e:
                    raise _at(path, lineno, e) from None
                yield record


# ---------------------------------------------------------------- calibration

def load_calibration(path: str) -> list[CameraView]:
    """Read one camera per line: {id, P: 12 row-major numbers, image_size}.
    A file with no camera is a ParseError."""
    seen = set()

    def camera(obj: dict) -> CameraView:
        cid = _str_field(obj, "id")
        if cid in seen:
            raise ParseError(f"duplicate camera id {cid!r}")
        P = _field(obj, "P")
        if not isinstance(P, list) or len(P) != 12:
            raise ParseError("field 'P' must hold 12 numbers")
        if not all(type(v) in (int, float) for v in P):
            raise ParseError(f"field 'P' must hold JSON numbers, got {P!r}")
        try:
            P_arr = np.array(P, dtype=float)
            finite = np.isfinite(P_arr).all()
        except OverflowError:  # an integer past float range
            finite = False
        if not finite:
            raise ParseError("field 'P' must hold finite numbers")
        size = _field(obj, "image_size")
        if not (isinstance(size, list) and len(size) == 2
                and all(type(v) is int and v > 0 for v in size)):
            raise ParseError(f"field 'image_size' must be two positive integers "
                             f"[w, h], got {size!r}")
        # only now, as a camera that raises ParseError is converted again
        seen.add(cid)
        return CameraView.from_projection(cid, P_arr, tuple(size))

    cams = list(_records(path, camera))
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

    The joints of all detections become one (M, K, 3) array of
    [x, y, confidence] rows in one _rows call, and the frame holds a copy of
    its x, y columns and a view of its confidences. A joint that is null or
    has a non-finite x or y is a NaN row with confidence 0, and a non-finite
    confidence is a ParseError."""
    try:
        return _decode(line, _frame, n_joints)
    except ParseError as e:
        raise _at(path, lineno, e) from None


def _frame(obj: dict, n_joints: int | None) -> FrameBatch:
    cid = _str_field(obj, "camera_id")
    t = _parse_ts(_field(obj, "timestamp"))
    raw_dets = _field(obj, "detections")
    if not isinstance(raw_dets, list):
        raise ParseError("field 'detections' must be a list")
    if not raw_dets:
        return FrameBatch(cid, t, [])
    # the joints of the detections ahead of the first malformed one
    entries: list = []
    for rd in raw_dets:
        joints = rd.get("joints") if type(rd) is dict else None
        if type(joints) is not list or not joints:
            break
        if n_joints is None:
            n_joints = len(joints)
        if len(joints) != n_joints:
            break
        entries += joints
    rows, n, nulls = _rows(entries, _MISSING_JOINT)
    finite = np.isfinite(rows)
    # when the null joints' rows hold the only non-finite values, no row
    # needs a change
    if np.count_nonzero(finite) != finite.size - 2 * nulls:
        if not finite[:, 2].all():
            j = int(finite[:, 2].argmin())
            raise ParseError("detection %d joint %d: " % divmod(j, n_joints)
                             + f"confidence {entries[j][2]!r} is not finite")
        rows[~(finite[:, 0] & finite[:, 1])] = _MISSING_JOINT
    if n < len(entries):
        raise _entry_error(entries[n], "detection %d joint %d" % divmod(n, n_joints),
                           "[x, y, confidence]")
    if not n_joints or len(entries) < n_joints * len(raw_dets):
        i = len(entries) // n_joints if entries else 0
        rd = raw_dets[i]
        if not isinstance(rd, dict) or "joints" not in rd:
            raise ParseError(f"detection {i} must carry 'joints'")
        if not isinstance(rd["joints"], list) or not rd["joints"]:
            raise ParseError(f"detection {i}: 'joints' must be a non-empty list")
        raise ParseError(f"detection {i}: field 'joints' has {len(rd['joints'])} "
                         f"entries, expected {n_joints}")
    rows = rows.reshape(len(raw_dets), n_joints, 3)
    return FrameBatch.of_arrays(cid, t, np.ascontiguousarray(rows[:, :, :2]),
                                rows[:, :, 2], np.arange(len(raw_dets)))


def iter_detections(f, path: str):
    """Stream the frames of the open detection file f, named `path` in errors;
    every detection must list as many joints as the stream's first one."""
    n_joints = None
    for lineno, line in enumerate(f, 1):
        if line.strip():
            frame = parse_frame_line(line, path, lineno, n_joints)
            xy = frame.arrays()[0]
            if n_joints is None and len(xy):
                n_joints = xy.shape[1]
            yield frame


def load_detections(path: str) -> list[FrameBatch]:
    with open(path, encoding="utf-8") as f:
        return list(iter_detections(f, path))


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

    The step's points are checked for finiteness and turned into Python
    values in one pass each for the joints and the times. Each distinct
    joint time is formatted once; the times are keyed by their bits, as
    -0.0 and 0.0 are equal keys that print differently."""
    ids = step.ids
    targets = []
    plain = all(isinstance(tid, int) for tid in ids)
    if ids:
        pts = np.asarray(step.points, dtype=float)
        if ids != sorted(ids):
            order = sorted(range(len(ids)), key=ids.__getitem__)
            ids, pts = [ids[i] for i in order], pts[order]
        K = pts.shape[1]
        xyz = pts[:, :, :3].reshape(-1, 3)
        finite = np.isfinite(xyz)
        if np.count_nonzero(finite) == finite.size:
            joints = xyz.tolist()
        else:
            finite = finite.all(axis=1)
            joints = _finite_rows(xyz, finite)
            xyz = xyz[finite]
        plain = plain and _plain_floats(xyz)
        jt = pts[:, :, 3].ravel()
        bits = jt.view(np.int64).tolist()
        isfinite = math.isfinite
        text = {b: fmt_ts(t) if isfinite(t) else None
                for b, t in dict(zip(bits, jt.tolist())).items()}
        times = list(map(text.__getitem__, bits))
        for i, tid in enumerate(ids):
            a = i * K
            targets.append({"id": tid, "joints": joints[a:a + K],
                            "joint_times": times[a:a + K]})
    return (_Plain if plain else dict)(timestamp=fmt_ts(step.timestamp),
                                       targets=targets)


def _track_row(obj: dict) -> TrackRow:
    t = _parse_ts(_field(obj, "timestamp"))
    targets = {}
    raw_times: list[list] = []
    raw_targets = _field(obj, "targets")
    if not isinstance(raw_targets, list):
        raise ParseError("field 'targets' must be a list")
    try:
        for tg in raw_targets:
            if not isinstance(tg, dict):
                raise ParseError("each target must be an object")
            tid = tg.get("id")
            if type(tid) is not int:
                raise ParseError("target id must be an integer")
            if tid in targets:
                raise ParseError(f"duplicate target id {tid}")
            joints = tg.get("joints")
            if not isinstance(joints, list):
                raise ParseError(f"target {tid}: bad 'joints'")
            _check_joint_count(len(joints), f"target {tid}")
            xyz, n, _ = _rows(joints, (math.nan, math.nan, math.nan))
            if n < len(joints):
                raise _entry_error(joints[n], f"target {tid} joint {n}", "[X, Y, Z]")
            jt = tg.get("joint_times")
            if jt is None:
                jt = []
            if not isinstance(jt, list) or len(jt) > len(joints):
                raise ParseError(f"target {tid}: 'joint_times' must be a list with at "
                                 "most one entry per joint")
            targets[tid] = xyz
            raw_times.append(jt)
    except ParseError:
        _joint_times(raw_times)  # a bad time of an earlier target is the row's error
        raise
    return TrackRow(t, targets, dict(zip(targets, _joint_times(raw_times))))


def _joint_times(raw: list[list]) -> np.ndarray:
    """The (T, N_JOINTS) times of T targets' joint_times lists, each entry a
    timestamp as _parse_ts reads it or null: NaN for a null and past a
    list's end. One np.array call converts every entry as float() does, None
    to NaN; _parse_ts runs on each entry, in order, only when that call
    fails or when a bool, a list or a non-finite time is among the values."""
    flat: list = []
    for jt in raw:
        flat += jt
        if len(jt) < N_JOINTS:
            flat += [None] * (N_JOINTS - len(jt))
    try:
        a = np.array(flat, dtype=float)
    except (TypeError, ValueError, OverflowError):
        a = None
    if a is None or a.ndim != 1 or bool in set(map(type, flat)) \
            or np.count_nonzero(np.isfinite(a)) != a.size - flat.count(None):
        a = np.full(len(flat), np.nan)
        for j, entry in enumerate(flat):
            if entry is not None:
                a[j] = _parse_ts(entry, "joint_times")
    return a.reshape(len(raw), N_JOINTS)


def load_tracks(path: str) -> list[TrackRow]:
    """Track rows; every target must list the skeleton's N_JOINTS joints."""
    return list(_records(path, _track_row))


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


def _truth_record(obj: dict, det_person: dict) -> tuple:
    """("pose", (camera_id, t, people)) or ("det", (det_person key, person)),
    where det_person maps the keys of the det records read so far."""
    kind = _field(obj, "kind")
    cid = _str_field(obj, "camera_id")
    t = _parse_ts(_field(obj, "timestamp"))
    if kind == "pose":
        raw_people = _field(obj, "people")
        if not isinstance(raw_people, dict):
            raise ParseError("field 'people' must be an object")
        people = {_person_id(k): _parse_points(v, f"person {k}")
                  for k, v in raw_people.items()}
        for pid, pose in people.items():
            _check_joint_count(len(pose), f"person {pid}")
        return kind, (cid, t, people)
    if kind == "det":
        key = (cid, t, _parse_int(_field(obj, "index"), "field 'index'"))
        person = _parse_int(_field(obj, "person"), "field 'person'")
        if key in det_person:
            raise ParseError(f"duplicate det record for camera {cid!r}, timestamp "
                             f"{fmt_ts(t)}, index {key[2]}")
        return kind, (key, person)
    raise ParseError(f"unknown record kind {kind!r}")


def load_truth(path: str) -> GroundTruth:
    """Ground truth; every pose must hold the skeleton's N_JOINTS joints,
    and no detection may have two det records."""
    truth = GroundTruth(pose_frames=[], det_person={}, noise={})
    for kind, rec in _records(path, lambda obj: _truth_record(obj, truth.det_person)):
        if kind == "pose":
            truth.pose_frames.append(rec)
        else:
            truth.det_person[rec[0]] = rec[1]
    return truth


# -------------------------------------------------------------- assignments

def assignment_record(r: AssignmentRecord) -> dict:
    plain = (_plain_str(r.camera_id) and isinstance(r.index, int)
             and (r.target_id is None or isinstance(r.target_id, int)))
    return (_Plain if plain else dict)(camera_id=r.camera_id,
                                       timestamp=fmt_ts(r.timestamp),
                                       index=r.index, target=r.target_id)


def _assignment(obj: dict) -> AssignmentRecord:
    cid = _str_field(obj, "camera_id")
    target = _field(obj, "target")
    if target is not None and type(target) is not int:
        raise ParseError("field 'target' must be an integer or null")
    return AssignmentRecord(cid, _parse_ts(_field(obj, "timestamp")),
                            _parse_int(_field(obj, "index"), "field 'index'"),
                            target)


def load_assignments(path: str) -> list[AssignmentRecord]:
    return list(_records(path, _assignment))


# ------------------------------------------------------------------- config

# each config field's annotation: "float", "int", "bool" or "float | None"
_KINDS = {f.name: f.type for f in fields(TrackerConfig)}
_TRUE = {"true", "1", "yes", "on"}
_FALSE = {"false", "0", "no", "off"}


def _coerce_config_value(key: str, val, path: str):
    kind = _KINDS[key]
    if kind == "bool":
        if isinstance(val, bool):
            return val
        if isinstance(val, str) and val.lower() in _TRUE | _FALSE:
            return val.lower() in _TRUE
        raise ParseError(f"{path}: config key {key!r}: expected a boolean, got {val!r}")
    if kind == "float | None" and (val is None or (
            isinstance(val, str) and val.lower() in ("none", "null"))):
        return None
    try:
        num = float(None if isinstance(val, bool) else val)  # a bool is no number
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"{path}: config key {key!r}: not a number: {val!r}") from None
    if not math.isfinite(num):
        raise ParseError(f"{path}: config key {key!r}: not a finite number: {val!r}")
    if kind == "int":
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
                raise _at(path, lineno, "expected key=value")
            k, v = body.split("=", 1)
            raw[k.strip()] = v.strip()
    kwargs = {}
    for k, v in raw.items():
        if k not in _KINDS:
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
