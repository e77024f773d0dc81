"""Count the C and Python calls a source tree's tracker makes per step.

    python3 tools/call_counts.py TREE [--seed N]

For grid12, grid32 and clutter8 at seed N (11 by default), prepares the
input files with TREE's `benchmark/drive.py prepare` in a temporary
directory, parses every detection line with TREE's package, and then runs
one `CrossViewTracker.step` per line under `sys.setprofile`. Prints, per
workload, the C-function calls and the Python-function calls per step; the
call to `step` itself is not counted. Parsing and serializing are outside
the count. The temporary directory is removed at the end, and no bytecode is
written into the tree.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

sys.dont_write_bytecode = True  # before the shared helpers are imported
from trees import prepare  # noqa: E402

WORKLOADS = ("grid12", "grid32", "clutter8")


def count_calls(step, frames) -> tuple[float, float]:
    """C and Python calls per step(frame), over frames."""
    c_calls = py_calls = 0

    def profile(frame, event, arg):
        nonlocal c_calls, py_calls
        if event == "c_call":
            c_calls += 1
        elif event == "call":
            py_calls += 1

    sys.setprofile(profile)
    for f in frames:
        step(f)
    sys.setprofile(None)
    n = len(frames)
    # the loop's own calls: one to step per frame, and the setprofile(None)
    return (c_calls - 1) / n, (py_calls - n) / n


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

    print(f"{'workload':10} {'C calls/step':>13} {'Python calls/step':>18}")
    with tempfile.TemporaryDirectory(prefix="call_counts_") as tmp:
        for name in WORKLOADS:
            d = os.path.join(tmp, name)
            prepare(tree, name, args.seed, d)
            cams = io_cli.load_calibration(os.path.join(d, "calibration.jsonl"))
            path = os.path.join(d, "detections.jsonl")
            with open(path, encoding="utf-8") as f:
                frames = [io_cli.parse_frame_line(line, path, i)
                          for i, line in enumerate(f, 1) if line.strip()]
            tracker = CrossViewTracker(cams, TrackerConfig())
            c, py = count_calls(tracker.step, frames)
            print(f"{name:10} {c:13.1f} {py:18.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
