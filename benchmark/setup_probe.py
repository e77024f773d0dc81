"""Set-up of one `posefuse track` run, in a fresh interpreter.

    python3 benchmark/setup_probe.py --calib FILE --trace 0|1

Imports posefuse.cli, loads the calibration and builds the tracker, as
cmd_track does before reading its first line, then prints one JSON object.
`ready` is time.monotonic() once the tracker exists; on Linux that clock is
shared by all processes, so the launcher subtracts its own reading taken
before it started this process to get the set-up time from interpreter start.
After that the probe samples the host's speed with reference.py, so the
launcher can scale the set-up time like the frame times.
"""

import argparse
import contextlib
import json
import sys
import time

REF_SAMPLES = 15


def main() -> int:
    p = argparse.ArgumentParser(description="time posefuse track set-up")
    p.add_argument("--calib", required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    t0 = time.monotonic()
    import posefuse.cli  # noqa: F401  (the import `posefuse track` pays)
    from posefuse import io_cli
    from posefuse.affinity import TrackerConfig
    from posefuse.tracker import CrossViewTracker
    t1 = time.monotonic()
    cams = io_cli.load_calibration(args.calib)
    t2 = time.monotonic()
    tracer = None
    traced = contextlib.nullcontext()
    if args.trace:
        from spans import Tracer, instrument_tracker
        tracer = Tracer()
        traced = instrument_tracker(tracer)
    t3 = time.monotonic()
    with traced:
        CrossViewTracker(cams, TrackerConfig())
    ready = time.monotonic()
    import reference
    slowdown = reference.slowdown([reference.sample() for _ in range(REF_SAMPLES)])

    out = {"ready": ready, "slowdown": slowdown, "import_s": t1 - t0,
           "load_calibration_ms": 1e3 * (t2 - t1),
           "construct_ms": 1e3 * (ready - t3)}
    if tracer is not None:
        out["fundamental_table_ms"] = 1e3 * sum(
            s.duration for s in tracer.spans if s.name == "geometry.fundamental_table")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
