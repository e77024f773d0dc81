"""Time the readers of two source trees on the benchmark's inputs.

    python3 tools/parse_time.py PARENT_TREE CHANGE_TREE [--seed N]

For grid12 and clutter8 at seed N (11 by default), prepares the input
files with each tree's `benchmark/drive.py prepare` in a temporary
directory, and tracks each workload once with that tree's `posefuse track
--assignments`. Then it times, for each tree, `parse_frame_line` over every
line of the detection file (called as `benchmark/drive.py` calls it), and
`load_calibration`, `load_tracks`, `load_truth` and `load_assignments` on
the calibration, tracks, truth and assignments files. Both trees' packages
are loaded in this one process, and each round times them in alternating
order, since a fixed order misleads. Prints, per workload and reader, each
tree's minimum and median over the rounds of the time per line, in
microseconds. The temporary directory is removed at the end, and
no bytecode is written into either tree.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import os
import statistics
import sys
import tempfile
import time

sys.dont_write_bytecode = True  # before the shared helpers are imported
from trees import prepare, track  # noqa: E402

WORKLOADS = ("grid12", "clutter8")
# each reader, and the file in a workload's directory that it reads
READERS = {"parse_frame_line": "detections.jsonl",
           "load_calibration": "calibration.jsonl", "load_tracks": "tracks.jsonl",
           "load_truth": "truth.jsonl", "load_assignments": "assignments.jsonl"}
LABELS = ("parent", "change")
ROUNDS = 15


def load_io(tree: str, alias: str):
    """tree's posefuse.io_cli, its package imported under the name alias."""
    init = os.path.join(tree, "src", "posefuse", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        alias, init, submodule_search_locations=[os.path.dirname(init)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    return importlib.import_module(alias + ".io_cli")


def lines_of(path: str) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return [line for line in f if line.strip()]


def timed(io_cli, reader: str, d: str) -> float:
    """Seconds that one pass of reader over its file in d takes, per line."""
    path = os.path.join(d, READERS[reader])
    lines = lines_of(path)
    if reader == "parse_frame_line":
        parse = io_cli.parse_frame_line
        gc.collect()
        t0 = time.perf_counter()
        for i, line in enumerate(lines, 1):
            parse(line, path, i)
    else:
        load = getattr(io_cli, reader)
        gc.collect()
        t0 = time.perf_counter()
        load(path)
    return (time.perf_counter() - t0) / len(lines)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args(argv)
    trees = [os.path.abspath(t) for t in (args.parent, args.change)]
    modules = [load_io(tree, f"posefuse_{label}") for tree, label in zip(trees, LABELS)]

    print(f"{'workload':10} {'reader':17} " + " ".join(
        f"{label + ' min / median us':>26}" for label in LABELS))
    with tempfile.TemporaryDirectory(prefix="parse_time_") as tmp:
        for name in WORKLOADS:
            dirs = [os.path.join(tmp, f"{name}-{label}") for label in LABELS]
            for tree, d in zip(trees, dirs):
                prepare(tree, name, args.seed, d)
                track(tree, d, d)
            times = {(r, k): [] for r in READERS for k in range(2)}
            for i in range(ROUNDS):
                for k in (0, 1) if i % 2 == 0 else (1, 0):
                    for r in READERS:
                        times[r, k].append(timed(modules[k], r, dirs[k]))
            for r in READERS:
                print(f"{name:10} {r:17} " + " ".join(
                    f"{1e6 * min(times[r, k]):12.1f} / {1e6 * statistics.median(times[r, k]):11.1f}"
                    for k in range(2)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
