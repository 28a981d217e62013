"""A fixed reference chunk of work that measures how fast the host runs now.

A shared host switches between speed regimes: the same single-threaded code
takes up to ~1.8x longer for stretches of a fraction of a second to tens of
seconds, in CPU time as well as in wall time, because other tenants contend
for the core.  Which mix of regimes a run happens to see moves a raw time
by far more than a code change of a few percent would.

The end-to-end timings therefore time this chunk between the timed blocks
of a run (``run.py``) and report every time at the reference speed: the
measured time times ``REF_NOMINAL_S`` over the mean time of the chunk in
the same run.  A change to langmove moves the measured time and not the
chunk, so it shows in full; a slower stretch of the host moves both and
cancels.

The chunk does what langmove's passes do, in the same proportions: a
per-step Python loop with scalar math and small array indexing, like the
Euler simulator, then vectorized array work and small least-squares solves,
like the design matrices and fits.  It never touches langmove, so no change
to the package can move it.  Do not edit it: that would change the unit of
every end-to-end time.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

#: Seconds one chunk takes at the reference speed.  It is the chunk's
#: typical time on the 2-vCPU Xeon host the baseline was measured on, so
#: reported times there read close to raw seconds.
REF_NOMINAL_S = 0.05

_STEPS = 3000
_REPEATS = 5


def _euler_like(noise: np.ndarray, w: np.ndarray) -> np.ndarray:
    x = y = 0.0
    pts = np.empty((len(noise) + 1, 2))
    for k in range(len(noise)):
        gx = 0.5 * math.cos(0.1 * x) + float(w[0]) * y
        gy = 0.5 * math.sin(0.1 * y) + float(w[1]) * x
        x = x + 0.005 * gx + 0.1 * noise[k, 0]
        y = y + 0.005 * gy + 0.1 * noise[k, 1]
        pts[k + 1, 0] = x
        pts[k + 1, 1] = y
    return pts


def _design_like(a: np.ndarray) -> float:
    total = 0.0
    for _ in range(10):
        b = np.exp(-0.5 * (a * a).sum(axis=1))
        coef = np.linalg.lstsq(a, b, rcond=None)[0]
        total += float(coef.sum())
    return total


def reference_chunk() -> float:
    """Run the fixed chunk once and return its wall time in seconds."""
    rng = np.random.default_rng(12345)
    noise = rng.standard_normal((_STEPS, 2))
    w = np.array([0.3, -0.2])
    a = rng.standard_normal((4000, 4))
    t0 = perf_counter()
    for _ in range(_REPEATS):
        _euler_like(noise, w)
        _design_like(a)
    return perf_counter() - t0
