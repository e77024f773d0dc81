"""Check that two source trees write the same tracks and assignments.

    python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE

Prepares the input files of grid12, grid32 and clutter8 at seeds 7, 11 and
401 once, with PARENT_TREE's `benchmark/drive.py prepare`, in a temporary
directory. Runs `posefuse track --assignments` on each set from each tree's
src/, prints the sha256 of the tracks and of the assignments for both trees,
one line per set, and exits 1 if any pair differs. The temporary directory
is removed at the end, and no bytecode is written into either tree.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile

WORKLOADS = ("grid12", "grid32", "clutter8")
SEEDS = (7, 11, 401)


def run(tree: str, args: list[str]) -> None:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    subprocess.run([sys.executable, *args], env=env, check=True)


def digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def track(tree: str, inputs: str, out: str) -> tuple[str, str]:
    """sha256 of the tracks and the assignments tree writes for inputs."""
    tracks = os.path.join(out, "tracks.jsonl")
    assignments = os.path.join(out, "assignments.jsonl")
    run(tree, ["-m", "posefuse.cli", "track",
               "--calib", os.path.join(inputs, "calibration.jsonl"),
               "--input", os.path.join(inputs, "detections.jsonl"),
               "--output", tracks, "--assignments", assignments])
    return digest(tracks), digest(assignments)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE",
              file=sys.stderr)
        return 2
    parent, change = (os.path.abspath(a) for a in argv)
    same = True
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        for name in WORKLOADS:
            for seed in SEEDS:
                inputs = os.path.join(tmp, f"{name}-{seed}")
                run(parent, [os.path.join(parent, "benchmark", "drive.py"), "prepare",
                             "--workload", name, "--seed", str(seed), "--dir", inputs])
                pairs = []
                for i, tree in enumerate((parent, change)):
                    out = os.path.join(inputs, f"out{i}")
                    os.mkdir(out)
                    pairs.append(track(tree, inputs, out))
                ok = pairs[0] == pairs[1]
                same &= ok
                print(f"{name} seed {seed}: {'same' if ok else 'DIFFERENT'}")
                for label, (t, a) in zip(("parent", "change"), pairs):
                    print(f"  {label}: tracks {t} assignments {a}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
