"""Fixed reference computation that measures how fast the host runs right now.

Shared cloud hosts change speed by up to 2x over seconds to minutes (other
tenants, frequency limits); a pure-Python loop, numpy and posefuse slow down
together. The benchmark times this kernel in the same process as the work
it measures, between frames, and divides measured times by
`slowdown = kernel time / NOMINAL_S`. Scaled times read as the time the same
work would take on a host where the kernel takes NOMINAL_S, so they are
comparable across runs made at different host speeds. The kernel mixes
small-array numpy calls with interpreter work, as a tracker step does, and
never touches posefuse, so program changes do not move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# kernel time on a quiet 2-vCPU Sapphire Rapids VM with numpy 2.4 (one thread)
NOMINAL_S = 0.8e-3

_rng = np.random.default_rng(0)
_P = _rng.random((3, 4))
_X = _rng.random((40, 14, 4))
_B = _X[:8, :4]
_EYE = np.eye(4)[None]


def kernel() -> None:
    for _ in range(10):
        a = _X @ _P.T
        b = np.sqrt((a * a).sum(axis=2))
        np.where(b > 0.5, b, 0.0).sum(axis=1)
        np.linalg.eigh(_EYE + _B.swapaxes(1, 2) @ _B)


def sample() -> float:
    """Seconds one kernel call takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def slowdown(samples: list[float]) -> float:
    """Host slowness relative to nominal: > 1 means slower than nominal."""
    return statistics.median(samples) / NOMINAL_S


def scale(times: list[float], samples: list[float], every: int,
          window: int = 2) -> np.ndarray:
    """Divide each time by the host slowdown around it.

    samples[i] was taken right after times[i * every]; a time in block i is
    scaled by the median of samples i - window .. i + window.
    """
    r = np.asarray(samples)
    local = np.array([np.median(r[max(0, i - window):i + window + 1])
                      for i in range(len(r))]) / NOMINAL_S
    return np.asarray(times) / np.repeat(local, every)[:len(times)]
