"""Check that two source trees write the same inputs, tracks and assignments.

    python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE

For grid12, grid32 and clutter8 at seeds 7, 11 and 401, prepares the input
files (calibration, detections, truth) with each tree's
`benchmark/drive.py prepare` in a temporary directory, and prints the sha256
of each file for both trees. Then runs `posefuse track --assignments` from
each tree's src/ on PARENT_TREE's inputs and prints the sha256 of the tracks
and of the assignments for both trees. Exits 1 if any input, track or
assignment file differs. The temporary directory is removed at the end, and
no bytecode is written into either tree.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile

WORKLOADS = ("grid12", "grid32", "clutter8")
SEEDS = (7, 11, 401)
INPUTS = ("calibration.jsonl", "detections.jsonl", "truth.jsonl")
LABELS = ("parent", "change")


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
                dirs = [os.path.join(tmp, f"{name}-{seed}-{label}") for label in LABELS]
                inputs, outputs = [], []
                for tree, d in zip((parent, change), dirs):
                    run(tree, [os.path.join(tree, "benchmark", "drive.py"), "prepare",
                               "--workload", name, "--seed", str(seed), "--dir", d])
                    inputs.append([digest(os.path.join(d, f)) for f in INPUTS])
                for tree, d in zip((parent, change), dirs):
                    out = os.path.join(d, "out")
                    os.mkdir(out)
                    outputs.append(track(tree, dirs[0], out))
                ok = inputs[0] == inputs[1] and outputs[0] == outputs[1]
                same &= ok
                print(f"{name} seed {seed}: {'same' if ok else 'DIFFERENT'}")
                for label, ins, (t, a) in zip(LABELS, inputs, outputs):
                    for f, h in zip(INPUTS, ins):
                        print(f"  {label}: {f} {h}")
                    print(f"  {label}: tracks {t} assignments {a}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
