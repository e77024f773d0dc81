"""Count the C and Python calls a source tree makes per camera frame.

    python3 tools/call_counts.py TREE [--seed N]

For grid12, grid32 and clutter8 at seed N (11 by default), prepares the
input files with TREE's `benchmark/drive.py prepare` in a temporary
directory, then runs each detection line through TREE's package as
`benchmark/drive.py` does, under one `sys.setprofile`: `parse_frame_line`,
`CrossViewTracker.step` on its frame, and `track_record` on the step's
result. Prints, per workload, the C-function calls and the Python-function
calls per frame made inside each of the three, and their sum; the calls to
the three themselves are not counted. The temporary directory is removed at
the end, and no bytecode is written into the tree.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

sys.dont_write_bytecode = True  # before the shared helpers are imported
from trees import prepare  # noqa: E402

WORKLOADS = ("grid12", "grid32", "clutter8")
STAGES = ("parse", "step", "track_record")


def count_calls(parse, step, record, path: str, lines: list[str]):
    """C and Python calls per frame, one pair per stage, over lines."""
    c_calls = [0] * len(STAGES)
    py_calls = [0] * len(STAGES)
    stage = 0

    def profile(frame, event, arg):
        if event == "c_call":
            c_calls[stage] += 1
        elif event == "call":
            py_calls[stage] += 1

    sys.setprofile(profile)
    for i, line in enumerate(lines, 1):
        stage = 0
        frame = parse(line, path, i)
        stage = 1
        out = step(frame)
        stage = 2
        record(out)
    sys.setprofile(None)
    n = len(lines)
    # the loop's own calls: one to each stage per frame, and the
    # setprofile(None) after the last record
    c_calls[2] -= 1
    return [(c / n, (p - n) / n) for c, p in zip(c_calls, py_calls)]


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree")
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args(argv)
    tree = os.path.abspath(args.tree)
    sys.path.insert(0, os.path.join(tree, "src"))
    from posefuse import io_cli
    from posefuse.affinity import TrackerConfig
    from posefuse.tracker import CrossViewTracker

    print(f"{'workload':10} " + " ".join(f"{s + ' C / Py':>22}" for s in (*STAGES, "sum")))
    with tempfile.TemporaryDirectory(prefix="call_counts_") as tmp:
        for name in WORKLOADS:
            d = os.path.join(tmp, name)
            prepare(tree, name, args.seed, d)
            cams = io_cli.load_calibration(os.path.join(d, "calibration.jsonl"))
            path = os.path.join(d, "detections.jsonl")
            with open(path, encoding="utf-8") as f:
                lines = [line for line in f if line.strip()]
            tracker = CrossViewTracker(cams, TrackerConfig())
            counts = count_calls(io_cli.parse_frame_line, tracker.step,
                                 io_cli.track_record, path, lines)
            counts.append((sum(c for c, _ in counts), sum(p for _, p in counts)))
            print(f"{name:10} " + " ".join(f"{c:12.1f} / {p:7.1f}" for c, p in counts))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
