"""Subprocess helpers shared by the tools that compare or measure source trees.

Each child process is the running Python with the tree's src/ first on
PYTHONPATH, writes no bytecode, and runs numpy's BLAS on one thread
(OPENBLAS_NUM_THREADS and OMP_NUM_THREADS set to 1), so that every tool
prepares, tracks and times under the same environment.
"""

from __future__ import annotations

import os
import subprocess
import sys


def run(tree: str, args: list[str]) -> None:
    """Run Python with args on tree's package; raise if it fails."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    subprocess.run([sys.executable, *args], env=env, check=True)


def prepare(tree: str, name: str, seed: int, d: str) -> None:
    """Write the calibration, detection and truth files of workload name at
    seed into d, with tree's `benchmark/drive.py prepare`."""
    run(tree, [os.path.join(tree, "benchmark", "drive.py"), "prepare",
               "--workload", name, "--seed", str(seed), "--dir", d])


def track(tree: str, inputs: str, out: str) -> tuple[str, str]:
    """Track the calibration and detection files in inputs with tree's
    `posefuse track --assignments`; return the paths of the tracks and the
    assignments it writes into out."""
    tracks = os.path.join(out, "tracks.jsonl")
    assignments = os.path.join(out, "assignments.jsonl")
    run(tree, ["-m", "posefuse.cli", "track",
               "--calib", os.path.join(inputs, "calibration.jsonl"),
               "--input", os.path.join(inputs, "detections.jsonl"),
               "--output", tracks, "--assignments", assignments])
    return tracks, assignments
