"""Check that two source trees write the same inputs, tracks and assignments.

    python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE

For grid12, grid32 and clutter8 at seeds 7, 11 and 401, prepares the input
files (calibration, detections, truth) with each tree's
`benchmark/drive.py prepare` in a temporary directory, and prints the sha256
of each file for both trees. Then runs `posefuse track --assignments` from
each tree's src/ on PARENT_TREE's inputs and prints the sha256 of the tracks
and of the assignments for both trees. Where the tracks differ, it also prints
the largest displacement in metres of a joint that both trees place for the
same target in the same row, whether every row holds the same set of target
ids, and the PCP, IDF1, MOTA and association accuracy of both outputs, parent
-> change, scored by CHANGE_TREE's package as `benchmark/drive.py` scores
them. Exits 1 if any input, track or assignment file differs. The temporary
directory is removed at the end, and no bytecode is written into either tree.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import tempfile

sys.dont_write_bytecode = True  # before the shared helpers are imported
from trees import prepare, track  # noqa: E402

WORKLOADS = ("grid12", "grid32", "clutter8")
SEEDS = (7, 11, 401)
INPUTS = ("calibration.jsonl", "detections.jsonl", "truth.jsonl")
LABELS = ("parent", "change")


def digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def read_rows(path: str) -> list[dict[int, list]]:
    """Each track row's joints by target id."""
    with open(path, encoding="utf-8") as f:
        return [{t["id"]: t["joints"] for t in json.loads(line)["targets"]} for line in f]


def track_gap(a: str, b: str) -> tuple[float, int, int]:
    """The largest distance between a joint that tracks files a and b both
    place for the same target in the same row, the number of rows whose
    target ids differ, and the number of rows."""
    rows_a, rows_b = read_rows(a), read_rows(b)
    worst, other_ids = 0.0, abs(len(rows_a) - len(rows_b))
    for ra, rb in zip(rows_a, rows_b):
        other_ids += ra.keys() != rb.keys()
        for tid in ra.keys() & rb.keys():
            for p, q in zip(ra[tid], rb[tid]):
                if p is not None and q is not None:
                    worst = max(worst, math.dist(p, q))
    return worst, other_ids, max(len(rows_a), len(rows_b))


def scores(inputs: str, out: str) -> dict[str, float]:
    """PCP, IDF1, MOTA and association accuracy (%) of the outputs in out,
    with ghost detections counted only through the MOT scores."""
    from posefuse import io_cli
    from posefuse.evaluation import association_accuracy, mot_metrics, pcp, \
        project_step_roots

    cams = io_cli.load_calibration(os.path.join(inputs, "calibration.jsonl"))
    truth = io_cli.load_truth(os.path.join(inputs, "truth.jsonl"))
    rows = io_cli.load_tracks(os.path.join(out, "tracks.jsonl"))
    records = io_cli.load_assignments(os.path.join(out, "assignments.jsonl"))
    series = [(cid, t, row.targets) for row, (cid, t, _) in zip(rows, truth.pose_frames)]
    mot = mot_metrics(project_step_roots(series, cams, truth)).overall
    real = [r for r in records
            if (r.camera_id, r.timestamp, r.index) in truth.det_person]
    return {"PCP": pcp([(row.timestamp, row.targets) for row in rows], truth).overall.score,
            "IDF1": mot.idf1, "MOTA": mot.mota,
            "assoc acc": association_accuracy(real, truth.det_person).overall}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE",
              file=sys.stderr)
        return 2
    parent, change = (os.path.abspath(a) for a in argv)
    sys.path.insert(0, os.path.join(change, "src"))
    same = True
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        for name in WORKLOADS:
            for seed in SEEDS:
                dirs = [os.path.join(tmp, f"{name}-{seed}-{label}") for label in LABELS]
                inputs, outputs = [], []
                for tree, d in zip((parent, change), dirs):
                    prepare(tree, name, seed, d)
                    inputs.append([digest(os.path.join(d, f)) for f in INPUTS])
                for tree, d in zip((parent, change), dirs):
                    out = os.path.join(d, "out")
                    os.mkdir(out)
                    outputs.append(tuple(map(digest, track(tree, dirs[0], out))))
                ok = inputs[0] == inputs[1] and outputs[0] == outputs[1]
                same &= ok
                print(f"{name} seed {seed}: {'same' if ok else 'DIFFERENT'}")
                for label, ins, (t, a) in zip(LABELS, inputs, outputs):
                    for f, h in zip(INPUTS, ins):
                        print(f"  {label}: {f} {h}")
                    print(f"  {label}: tracks {t} assignments {a}")
                if outputs[0][0] != outputs[1][0]:
                    outs = [os.path.join(d, "out") for d in dirs]
                    worst, other_ids, n = track_gap(
                        *(os.path.join(o, "tracks.jsonl") for o in outs))
                    print(f"  tracks: largest joint displacement {worst:.3g} m; "
                          + (f"target ids differ in {other_ids} of {n} rows" if other_ids
                             else "the same target ids in every row"))
                    before, after = (scores(dirs[0], o) for o in outs)
                    print("  scores, parent -> change: " + ", ".join(
                        f"{k} {before[k]:.3f} -> {after[k]:.3f}" for k in before))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
