"""Command-line front end: track, simulate, evaluate, and bench subcommands."""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from . import bench, io_cli
from .affinity import TrackerConfig
from .evaluation import association_accuracy, framerate_sweep, mot_metrics, pcp, \
    project_step_roots
from .geometry import CoincidentCenters, RankDeficientP
from .simulator import InvalidSpec, generate
from .tracker import ChronologyViolation, CrossViewTracker, UnknownCamera


def _open_in(path: str):
    return sys.stdin if path == "-" else open(path, encoding="utf-8")


def _open_out(path: str):
    return sys.stdout if path == "-" else open(path, "w", encoding="utf-8")


def _close(handle) -> None:
    if handle not in (sys.stdin, sys.stdout):
        handle.close()


def cmd_track(args) -> int:
    cams = io_cli.load_calibration(args.calib)
    cfg = io_cli.load_config(args.config) if args.config else TrackerConfig()
    try:
        tracker = CrossViewTracker(cams, cfg)
    except CoincidentCenters as e:
        raise io_cli.ParseError(f"{args.calib}: {e}") from None
    label = "<stdin>" if args.input == "-" else args.input

    def emit_assignments(records):
        for r in records:
            fassign.write(io_cli.dumps(io_cli.assignment_record(r)) + "\n")

    with contextlib.ExitStack() as stack:
        fin = _open_in(args.input)
        stack.callback(_close, fin)
        fout = _open_out(args.output)
        stack.callback(_close, fout)
        fassign = None
        if args.assignments:
            fassign = stack.enter_context(
                open(args.assignments, "w", encoding="utf-8"))
        for lineno, line in enumerate(fin, 1):
            if not line.strip():
                continue
            frame = io_cli.parse_frame_line(line, label, lineno, tracker.K)
            out = tracker.step(frame)
            fout.write(io_cli.dumps(io_cli.track_record(out)) + "\n")
            if fassign:
                emit_assignments(out.assignments)
        if fassign:
            emit_assignments(tracker.finish())
        fout.flush()
    return 0


def cmd_simulate(args) -> int:
    spec = io_cli.load_scenario(args.spec)
    cams, frames, truth = generate(spec)
    os.makedirs(args.out_dir, exist_ok=True)
    io_cli.write_calibration(cams, os.path.join(args.out_dir, "calibration.jsonl"))
    io_cli.write_detections(frames, os.path.join(args.out_dir, "detections.jsonl"))
    io_cli.write_truth(truth, os.path.join(args.out_dir, "truth.jsonl"))
    return 0


def _cell(c) -> dict:
    return {"correct": c.correct, "total": c.total, "score": c.score}


def _mot_stats(s) -> dict:
    return {"mota": s.mota, "idf1": s.idf1, "fp": s.fp, "fn": s.fn, "ids": s.ids}


def cmd_evaluate(args) -> int:
    truth = io_cli.load_truth(args.truth)
    rows = io_cli.load_tracks(args.tracks)
    est = [(r.timestamp, r.targets) for r in rows]
    try:
        rep = pcp(est, truth)
    except KeyError as e:
        raise io_cli.ParseError(
            f"{args.tracks}: timestamp not present in truth: {e}") from None
    report = {"pcp": {
        "overall": _cell(rep.overall),
        "per_part": {p: _cell(c) for p, c in rep.per_part.items()},
        "per_person": {str(pid): _cell(c) for pid, c in rep.per_person.items()},
    }}

    if args.assignments:
        recs = io_cli.load_assignments(args.assignments)
        for r in recs:
            if (r.camera_id, r.timestamp, r.index) not in truth.det_person:
                raise io_cli.ParseError(
                    f"{args.assignments}: record ({r.camera_id!r}, "
                    f"{r.timestamp}, {r.index}) has no matching truth detection")
        acc = association_accuracy(recs, truth.det_person)
        report["association_accuracy"] = {
            "note": "majority-identity agreement per clustered camera detection",
            "per_camera": acc.per_camera, "overall": acc.overall}

    needs_calib = args.mot or args.framerate_sweep
    if needs_calib and not args.calib:
        raise io_cli.ParseError("--mot and --framerate-sweep require --calib")
    cams = io_cli.load_calibration(args.calib) if needs_calib else None

    if args.mot:
        if len(rows) != len(truth.pose_frames):
            raise io_cli.ParseError(
                f"{args.tracks}: {len(rows)} track rows do not align with "
                f"{len(truth.pose_frames)} truth frames")
        series = []
        for row, (cid, t, _) in zip(rows, truth.pose_frames):
            if abs(row.timestamp - t) > 1e-9:
                raise io_cli.ParseError(
                    f"{args.tracks}: track row at {row.timestamp} does not "
                    f"align with truth frame at {t}")
            series.append((cid, t, row.targets))
        mot = mot_metrics(project_step_roots(series, cams, truth))
        report["mot"] = {
            "note": "simplified root-distance matching",
            "per_camera": {c: _mot_stats(s) for c, s in mot.per_camera.items()},
            "overall": _mot_stats(mot.overall)}

    if args.framerate_sweep:
        if not args.input:
            raise io_cli.ParseError("--framerate-sweep requires --input")
        try:
            n_values = [int(v) for v in args.framerate_sweep.split(",") if v]
        except ValueError:
            raise io_cli.ParseError(
                f"bad --framerate-sweep value {args.framerate_sweep!r}") from None
        if any(n < 1 for n in n_values):
            raise io_cli.ParseError(
                f"bad --framerate-sweep value {args.framerate_sweep!r}: every "
                "rate divisor must be at least 1")
        frames = io_cli.load_detections(args.input)
        cfg = io_cli.load_config(args.config) if args.config else None
        sweep = framerate_sweep(cams, frames, truth, n_values, cfg)
        report["framerate_sweep"] = [
            {"n": r.n, "pcp_weighted": r.pcp_weighted,
             "pcp_unweighted": r.pcp_unweighted,
             "mean_dt_weighted": r.mean_dt_weighted,
             "mean_dt_unweighted": r.mean_dt_unweighted} for r in sweep]
        with open(args.report + ".tsv", "w", encoding="utf-8") as f:
            f.write("n\tpcp_weighted\tpcp_unweighted\t"
                    "mean_dt_weighted\tmean_dt_unweighted\n")
            for r in sweep:
                f.write(f"{r.n}\t{r.pcp_weighted:.4f}\t{r.pcp_unweighted:.4f}\t"
                        f"{r.mean_dt_weighted:.6f}\t{r.mean_dt_unweighted:.6f}\n")

    with open(args.report, "w", encoding="utf-8") as f:
        f.write(io_cli.dumps(report) + "\n")
    return 0


def cmd_bench(args) -> int:
    fout = _open_out(args.out)
    try:
        fout.write(bench.BENCH_HEADER + "\n")
        for nc in args.cameras:
            for npeople in args.people:
                cams, frames, _ = bench.bench_scene(nc, npeople, args.duration,
                                                    args.seed)
                fout.write(bench.bench_csv_line(
                    bench.bench_tracker(cams, frames, npeople)) + "\n")
                if args.baseline:
                    fout.write(bench.bench_csv_line(
                        bench.bench_baseline(cams, frames, npeople)) + "\n")
        fout.flush()
    finally:
        _close(fout)
    return 0


def _int_list(text: str) -> list[int]:
    try:
        vals = [int(v) for v in text.split(",") if v]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, "
                                         f"got {text!r}") from None
    if not vals:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return vals


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="posefuse",
        description="Fuse unsynchronized multi-camera 2D pose streams into "
                    "identity-stable 3D tracks.")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("track", help="run the tracker over a detection stream")
    t.add_argument("--calib", required=True,
                   help="camera file: one {id, P, image_size} object per line")
    t.add_argument("--config", help="tracker settings: key=value lines or one "
                                    "JSON object; keys match config field names")
    t.add_argument("--input", default="-",
                   help="detection stream file, or - for stdin (default)")
    t.add_argument("--output", default="-",
                   help="track output file, or - for stdout (default)")
    t.add_argument("--assignments",
                   help="also write one assignment record per detection here")
    t.set_defaults(func=cmd_track)

    s = sub.add_parser("simulate", help="generate a synthetic scene")
    s.add_argument("--spec", required=True, help="scenario file (one JSON object)")
    s.add_argument("--out-dir", required=True,
                   help="directory for calibration.jsonl, detections.jsonl, "
                        "truth.jsonl")
    s.set_defaults(func=cmd_simulate)

    e = sub.add_parser("evaluate", help="score tracks against ground truth")
    e.add_argument("--truth", required=True, help="ground-truth file")
    e.add_argument("--tracks", required=True, help="track output file")
    e.add_argument("--report", required=True, help="where to write the report")
    e.add_argument("--mot", action="store_true",
                   help="add simplified MOT metrics (requires --calib)")
    e.add_argument("--framerate-sweep", metavar="N1,N2,...",
                   help="rerun the tracker on subsampled input at each rate "
                        "divisor (requires --calib and --input)")
    e.add_argument("--assignments",
                   help="assignment records; adds per-camera association accuracy")
    e.add_argument("--calib", help="camera file, needed by --mot and the sweep")
    e.add_argument("--input", help="detection stream, needed by the sweep")
    e.add_argument("--config", help="tracker settings for the sweep")
    e.set_defaults(func=cmd_evaluate)

    b = sub.add_parser("bench", help="time the tracker on synthetic scenes")
    b.add_argument("--cameras", required=True, type=_int_list,
                   help="comma-separated camera counts")
    b.add_argument("--people", required=True, type=_int_list,
                   help="comma-separated person counts")
    b.add_argument("--duration", type=float, default=4.0,
                   help="scene length in seconds (default 4)")
    b.add_argument("--baseline", action="store_true",
                   help="also time the per-frame brute-force baseline")
    b.add_argument("--seed", type=int, default=0, help="scene seed (default 0)")
    b.add_argument("--out", default="-", help="CSV file, or - for stdout (default)")
    b.set_defaults(func=cmd_bench)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream consumer went away (e.g. | head); exit quietly, and
        # point stdout at devnull so interpreter shutdown does not re-raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (io_cli.ParseError, InvalidSpec, UnknownCamera, ChronologyViolation,
            RankDeficientP, CoincidentCenters, OSError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
