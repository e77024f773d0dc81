"""posefuse benchmark: one workload, one seed, one JSON result line.

    python3 benchmark/run.py --workload grid12 --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ./src. Steps,
each in a fresh child process with OPENBLAS_NUM_THREADS=1 and
OMP_NUM_THREADS=1 (numpy's threaded BLAS would otherwise compete with the
loop for the cores):

1. drive.py prepare: write the workload's input files for the seed under
   .bench_work/.
2. drive.py run: output check against `posefuse track`, quality scores,
   then the timed closed loop (see drive.py).
3. setup_probe.py, SETUP_REPEATS times, split before and after step 2:
   set-up time from interpreter start until the tracker is ready, scaled to
   nominal host speed (see reference.py); the median is `setup_s`.

The workloads and the metrics with their units are read from BENCHMARK.json.
With --trace 0 the result carries the end-to-end metrics, with --trace 1
the per-layer ones (the traced run also writes its spans to
.bench_work/spans/). A human-readable table goes to stdout before the JSON
line, with the sample counts, the output sha256 and the unscaled times.
The exit code is 1 when the output check fails, 2 when the benchmark cannot
run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_REPEATS = 3


def declared() -> dict:
    """BENCHMARK.json: the workloads and the metrics, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


# per-layer set-up metric -> figure printed by setup_probe.py
SETUP_LAYERS = {"cli.import_s": "import_s",
                "io_cli.load_calibration_ms": "load_calibration_ms",
                "geometry.fundamental_table_ms": "fundamental_table_ms",
                "tracker.construct_ms": "construct_ms"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["MKL_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH", "")) if p)
    return env


def child(script: str, args: list[str], timeout: float) -> str:
    """Run a benchmark script in a fresh interpreter; return its stdout."""
    cmd = [sys.executable, os.path.join(HERE, script), *args]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{script} {args[0]} did not finish in {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{script} {' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return proc.stdout


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def setup_probes(calib: str, trace: int, n: int) -> list[dict]:
    """Time `n` fresh-process set-ups of `posefuse track`."""
    runs = []
    for _ in range(n):
        t0 = time.monotonic()
        out = last_json(child("setup_probe.py", ["--calib", calib, "--trace", str(trace)],
                              timeout=60))
        out["setup_s"] = out.pop("ready") - t0
        runs.append(out)
    return runs


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if not os.path.isfile(os.path.join(SRC, "posefuse", "__init__.py")):
        raise BenchError(f"no posefuse package under {SRC}; run from a full checkout")
    work = os.path.join(WORK, f"{workload}-s{seed}")
    spans_dir = os.path.join(WORK, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--dir", work]
    calib = os.path.join(work, "calibration.jsonl")
    try:
        child("drive.py", ["prepare", *common], timeout=120)
        # set-up is timed before and after the loop, so that both ends of the
        # run's wall-clock window are sampled
        probes = setup_probes(calib, trace, SETUP_REPEATS // 2)
        raw = last_json(child(
            "drive.py",
            ["run", *common, "--seconds", str(seconds), "--trace", str(trace),
             "--spans", os.path.join(spans_dir, f"{workload}-s{seed}.jsonl")],
            timeout=2 * seconds + 150))
        probes += setup_probes(calib, trace, SETUP_REPEATS - len(probes))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    raw["unscaled"]["setup_s"] = statistics.median(p["setup_s"] for p in probes)
    for name, key in {"setup_s": "setup_s", **SETUP_LAYERS}.items():
        if key in probes[0]:
            raw["metrics"][name] = statistics.median(p[key] / p["slowdown"]
                                                     for p in probes)
    raw["setup_slowdowns"] = [p["slowdown"] for p in probes]
    raw["setup_repeats"] = SETUP_REPEATS
    return raw


def report(raw: dict, workload: str, seed: int, trace: int, spec: dict) -> dict:
    """Print the table; return the result object for the last line."""
    print(f"workload {workload}  seed {seed}  cameras {raw['cameras']}  "
          f"frames/pass {raw['frames_per_pass']}  timed passes {raw['passes']}  "
          f"trace {trace}")
    print(f"output check vs `posefuse track`: "
          f"{'identical' if raw['correct'] else 'MISMATCH'}  "
          f"(cli exit {raw['cli_exit']}, tracks sha256 {raw['tracks_sha256']}, "
          f"assignments sha256 {raw['assignments_sha256']})")
    print(f"frames timed {raw['attempted']}, failed {raw['failed']}; frame metrics "
          f"over {raw['frames_per_pass']} per-frame medians of {raw['passes']} passes; "
          f"set-up runs {raw['setup_repeats']}")
    slow = raw["slowdowns"] + raw["setup_slowdowns"]
    print(f"host slowdown vs nominal (reference.py): {min(slow):.2f}-{max(slow):.2f}; "
          f"times below are scaled by it")
    print("unscaled " + json.dumps(raw["unscaled"]))
    if trace:
        print(f"traced frames {raw['traced_frames']}, spans {raw['spans']}")
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = raw["metrics"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:40s} {value:14.6f} {m['unit']}")
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def main(argv=None) -> int:
    # on SIGTERM, unwind so that subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = declared()
    p = argparse.ArgumentParser(description="posefuse benchmark")
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    try:
        raw = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    result = report(raw, args.workload, args.seed, args.trace, spec)
    print(json.dumps(result))
    if not raw["correct"]:
        print("benchmark error: in-process output differs from `posefuse track`",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
