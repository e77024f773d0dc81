"""Closed-loop timing of one workload; run.py starts it in a fresh process.

    python3 benchmark/drive.py prepare --workload W --seed N --dir D
    python3 benchmark/drive.py run --workload W --seed N --dir D \
        --seconds S --trace 0|1 --spans FILE

`run` makes the same calls `posefuse track` makes for each input line
(parse_frame_line -> CrossViewTracker.step -> track_record /
assignment_record / dumps), on lines preloaded in memory and into in-memory
sinks. One client, one thread: the next line is parsed only after the
previous record is written, as when the tracker drains a backlog of a
time-merged camera stream. Each pass over the stream uses a fresh tracker;
passes repeat until the time is up (at least MIN_PASSES of them). Before
timing, `posefuse track` runs in-process on the same files; what it writes
is scored with posefuse.evaluation, and every timed pass must reproduce it
byte for byte (compared by sha256).

Frame times are scaled to nominal host speed with reference.py. Because
every pass replays the same stream, frame j is the same work in each pass;
the frame metrics are taken over each frame's median across passes, which
drops a stall that hit one pass but keeps frames that are slow every time.
The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

from posefuse import cli, io_cli
from posefuse.affinity import TrackerConfig
from posefuse.evaluation import association_accuracy, mot_metrics, pcp, \
    project_step_roots
from posefuse.tracker import CrossViewTracker

import reference
from spans import Tracer, instrument_tracker, self_times, write_spans
from workloads import files_in, prepare


class DigestSink:
    """In-memory stand-in for a text output file.

    Encodes each write as UTF-8, as a file opened by cmd_track would, and
    keeps only the byte count and the sha256, so memory stays flat however
    long the run.
    """

    def __init__(self):
        self._sha = hashlib.sha256()
        self.size = 0

    def write(self, text: str) -> None:
        data = text.encode("utf-8")
        self._sha.update(data)
        self.size += len(data)

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


class Pipeline:
    """One `posefuse track` run held in memory.

    Mirrors cli.cmd_track: track lines and assignment lines go to two
    in-memory sinks instead of the --output and --assignments files.
    """

    def __init__(self, cams, label: str):
        self.label = label
        self.tracker = CrossViewTracker(cams, TrackerConfig())
        self.tracks = DigestSink()
        self.assigns = DigestSink()
        self.parse = io_cli.parse_frame_line
        self.step = self.tracker.step

    def serialize(self, out) -> None:
        self.tracks.write(io_cli.dumps(io_cli.track_record(out)) + "\n")
        for r in out.assignments:
            self.assigns.write(io_cli.dumps(io_cli.assignment_record(r)) + "\n")

    def frame(self, line: str, lineno: int):
        out = self.step(self.parse(line, self.label, lineno))
        self.serialize(out)
        return out

    def finish(self) -> list:
        records = self.tracker.finish()
        for r in records:
            self.assigns.write(io_cli.dumps(io_cli.assignment_record(r)) + "\n")
        return records

    def output(self) -> tuple[str, str]:
        """sha256 of the track stream and of the assignment stream."""
        return self.tracks.hexdigest(), self.assigns.hexdigest()

    def instrument(self, tracer: Tracer) -> None:
        """Record a span around each stage; `frame` is the per-frame root."""
        self.parse = tracer.wrap("io_cli.parse", self.parse)
        self.step = tracer.wrap("tracker.step", self.step)
        self.serialize = tracer.wrap("io_cli.serialize", self.serialize)
        self.frame = tracer.wrap("frame", self.frame)


def numbered(lines: list[str]) -> list[tuple[int, str]]:
    """(line number, line) for the lines cmd_track would not skip."""
    return [(i, line) for i, line in enumerate(lines, 1) if line.strip()]


# frames between two samples of the reference kernel (about 2 % of run time)
REF_EVERY = 20
# fewest untimed passes a run makes, so that per-frame medians drop a stall
# that hit one pass
MIN_PASSES = 3


@dataclass
class PassResult:
    traced: bool
    times: list[float]  # seconds per frame, as measured
    scaled: np.ndarray  # the same, scaled to nominal host speed
    failed: int
    same_output: bool


def frame_profile(passes: list[PassResult]) -> np.ndarray:
    """Each frame's median scaled time across passes (the passes replay the
    same stream, so frame j is the same work in every pass)."""
    return np.median(np.stack([p.scaled for p in passes]), axis=0)


def run_pass(pipe: Pipeline, items: list[tuple[int, str]]) -> tuple[list[float], list[float], int]:
    """Time every frame from parse start to record written.

    Every REF_EVERY frames, outside any frame's time, the reference kernel
    samples the host's current speed.
    """
    clock = time.perf_counter
    frame = pipe.frame
    times = []
    refs = []
    failed = 0
    for n, (lineno, line) in enumerate(items):
        s = clock()
        try:
            frame(line, lineno)
        except Exception:  # a frame that raises is counted, not fatal
            failed += 1
        times.append(clock() - s)
        if n % REF_EVERY == 0:
            refs.append(reference.sample())
    return times, refs, failed


def timed_passes(cams, items, label: str, seconds: float, tracer: Tracer | None,
                 expected: tuple[str, str]) -> list[PassResult]:
    """Repeat whole passes until `seconds` have gone by and at least
    MIN_PASSES untraced passes are done.

    With a tracer, passes alternate untraced / traced, so the tracing
    overhead is measured on the same workload under the same conditions.
    """
    passes: list[PassResult] = []
    t_end = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        gc.collect()
        pipe = Pipeline(cams, label)
        if traced:
            pipe.instrument(tracer)
            with instrument_tracker(tracer):
                times, refs, failed = run_pass(pipe, items)
        else:
            times, refs, failed = run_pass(pipe, items)
        pipe.finish()
        passes.append(PassResult(traced, times, reference.scale(times, refs, REF_EVERY),
                                 failed, pipe.output() == expected))
        n_plain = sum(not p.traced for p in passes)
        traced_done = tracer is None or n_plain < len(passes)
        if time.perf_counter() >= t_end and n_plain >= MIN_PASSES and traced_done:
            return passes


def count_pass(cams, items, label: str) -> dict[str, float]:
    """One untimed pass that reads the tracker's public state after each step."""
    pipe = Pipeline(cams, label)
    seen: set[int] = set()
    live = pooled = created = retired = matched = records = 0
    for lineno, line in items:
        try:
            out = pipe.frame(line, lineno)
        except Exception:  # counted by the timed passes
            continue
        records += len(out.assignments)
        matched += sum(r.target_id in seen for r in out.assignments)
        ids = {p.id for p in out.poses}
        created += len(ids - seen)
        seen |= ids
        retired += len(out.retired)
        live += len(pipe.tracker.targets)
        pooled += sum(len(v) for v in pipe.tracker.pool.values())
    records += len(pipe.finish())
    n = len(items)
    return {
        "tracker.live_targets": live / n,
        "tracker.pool_size": pooled / n,
        "tracker.targets_created": float(created),
        "tracker.targets_retired": float(retired),
        "tracker.matched_frac": matched / records if records else 0.0,
    }


@dataclass
class CliRun:
    exit_code: int
    digests: tuple[str, str]  # sha256 of the track and assignment files
    bytes_out: int
    quality: dict[str, float]


def cli_run(files, work_dir: str, cams, truth) -> CliRun:
    """Run `posefuse track` in-process on the workload files; hash and score
    what it wrote."""
    paths = (os.path.join(work_dir, "cli_tracks.jsonl"),
             os.path.join(work_dir, "cli_assignments.jsonl"))
    rc = cli.main(["track", "--calib", files.calib, "--input", files.detections,
                   "--output", paths[0], "--assignments", paths[1]])
    digests, size = [], 0
    for path in paths:
        with open(path, "rb") as f:
            data = f.read()
        digests.append(hashlib.sha256(data).hexdigest())
        size += len(data)
    rows = io_cli.load_tracks(paths[0])
    records = io_cli.load_assignments(paths[1])
    for path in paths:
        os.remove(path)

    # one track row per input frame, in the order of the truth's pose frames
    series = [(cid, t, row.targets) for row, (cid, t, _) in zip(rows, truth.pose_frames)]
    mot = mot_metrics(project_step_roots(series, cams, truth)).overall
    # ghost detections have no true identity; they count through the MOT scores
    real = [r for r in records
            if (r.camera_id, r.timestamp, r.index) in truth.det_person]
    quality = {
        "pcp_pct": pcp([(row.timestamp, row.targets) for row in rows], truth).overall.score,
        "idf1_pct": mot.idf1,
        "assoc_acc_pct": association_accuracy(real, truth.det_person).overall,
        "evaluation.mota_pct": mot.mota,
        "evaluation.id_switches": float(mot.ids),
    }
    return CliRun(rc, (digests[0], digests[1]), size, quality)


def layer_metrics(tracer: Tracer, traced: list[PassResult], created: float,
                  max_exact: int) -> dict[str, float]:
    """Per-layer numbers from the traced passes' spans.

    `*_ms` are span time per camera frame, scaled to nominal host speed like
    the end-to-end times; call and pair counts are per pass over the stream.
    """
    frames = sum(len(p.times) for p in traced)
    ms = 1e3 * sum(float(p.scaled.sum()) for p in traced) \
        / sum(sum(p.times) for p in traced)
    n_pass = len(traced)
    spans = tracer.spans
    own = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        calls[s.name] = calls.get(s.name, 0) + 1

    def per_frame_ms(name: str) -> float:
        return ms * total.get(name, 0.0) / frames

    def share(name: str, pred) -> float:
        hits = [pred(s) for s in spans if s.name == name]
        return sum(hits) / len(hits) if hits else 0.0

    steps = [s.duration for s in spans if s.name == "tracker.step"]
    epi_calls = calls.get("affinity.epipolar", 0) / n_pass
    return {
        "io_cli.parse_ms": per_frame_ms("io_cli.parse"),
        "io_cli.serialize_ms": per_frame_ms("io_cli.serialize"),
        "tracker.step_p50_ms": ms * statistics.median(steps),
        "tracker.self_ms": ms * sum(o for s, o in zip(spans, own)
                                     if s.name == "tracker.step") / frames,
        "tracker.init_yield": created / epi_calls if epi_calls else 0.0,
        "affinity.epipolar_ms": per_frame_ms("affinity.epipolar"),
        "affinity.epipolar_calls": epi_calls,
        "affinity.epipolar_pairs": sum(s.work * (s.work - 1) / 2 for s in spans
                                       if s.name == "affinity.epipolar") / n_pass,
        "assignment.partition_ms": per_frame_ms("assignment.partition"),
        "assignment.partition_greedy_frac": share(
            "assignment.partition", lambda s: s.work > max_exact),
        "assignment.hungarian_ms": per_frame_ms("assignment.hungarian"),
        "reconstruction.triangulate_ms": per_frame_ms("reconstruction.triangulate"),
        "reconstruction.triangulate_failed_frac": share(
            "reconstruction.triangulate", lambda s: s.failed),
    }


def measure(directory: str, seconds: float, trace: bool, spans_path: str | None) -> dict:
    """Check, score and time the workload whose files are in `directory`."""
    files = files_in(directory)
    cams = io_cli.load_calibration(files.calib)
    truth = io_cli.load_truth(files.truth)
    with open(files.detections, encoding="utf-8") as f:
        items = numbered(list(f))
    label = files.detections

    ref = cli_run(files, directory, cams, truth)
    tracer = Tracer() if trace else None
    passes = timed_passes(cams, items, label, seconds, tracer, ref.digests)
    correct = ref.exit_code == 0 and all(p.same_output for p in passes)
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    n_cam = len(cams)
    raw_ms = 1e3 * np.array([t for p in plain for t in p.times])
    prof_ms = 1e3 * frame_profile(plain)

    result = {
        "correct": correct,
        "cli_exit": ref.exit_code,
        "tracks_sha256": ref.digests[0],
        "assignments_sha256": ref.digests[1],
        "cameras": n_cam,
        "frames_per_pass": len(items),
        "passes": len(plain),
        "attempted": int(raw_ms.size),
        "failed": sum(p.failed for p in plain),
        "slowdowns": [sum(p.times) / float(p.scaled.sum()) for p in plain],
        "unscaled": {
            "frame_p50_ms": float(np.percentile(raw_ms, 50)),
            "frame_p99_ms": float(np.percentile(raw_ms, 99)),
            "rig_fps": 1e3 * raw_ms.size / raw_ms.sum() / n_cam,
        },
        "metrics": {
            "frame_p50_ms": float(np.percentile(prof_ms, 50)),
            "frame_p99_ms": float(np.percentile(prof_ms, 99)),
            "rig_fps": 1e3 * prof_ms.size / float(prof_ms.sum()) / n_cam,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }
    result["metrics"].update(ref.quality)
    if tracer is not None:
        m = result["metrics"]
        m.update(count_pass(cams, items, label))
        m.update(layer_metrics(tracer, traced, m["tracker.targets_created"],
                               TrackerConfig().max_exact_partition))
        n_bytes_in = sum(len(line.encode("utf-8")) for _, line in items)
        m["io_cli.bytes_in"] = n_bytes_in / len(items)
        m["io_cli.bytes_out"] = ref.bytes_out / len(items)
        traced_ms = 1e3 * frame_profile(traced)
        m["trace.overhead_pct"] = 100.0 * (1.0 - prof_ms.sum() / traced_ms.sum())
        result["traced_frames"] = sum(len(p.times) for p in traced)
        result["spans"] = len(tracer.spans)
        if spans_path:
            write_spans(tracer.spans, spans_path)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("phase", choices=["prepare", "run"])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True, help="directory for the input files")
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--spans", help="where the traced run writes its spans")
    args = p.parse_args(argv)
    if args.phase == "prepare":
        prepare(args.workload, args.seed, args.dir)
        return 0
    print(json.dumps(measure(args.dir, args.seconds, bool(args.trace), args.spans)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
