"""A fixed piece of reference work that times how fast the host runs now.

The benchmark runs on a shared VM whose speed drifts in phases: the same
pass of the same dataset takes 2.0 s in one minute and 3.3 s a minute
later, in CPU time as in wall time, with no steal time reported.  A run
lasts under a minute, so its mean lands wherever the phase happens to be,
and two runs of the same code can differ by a third.

``calibration_s`` times work that uses nothing of anomtax, made of what
the workloads spend their time on: a pure-Python loop, many small numpy
operations (as in MLP training) and a large pairwise-distance temporary
(as in kNN scoring).  The benchmark runs it between passes and scales
each pass's times by ``NOMINAL_S / calibration``, which takes the host's
phase out; a change to anomtax moves the pass and not the calibration, so
it shows in full.  On a 2-vCPU Xeon VM (Python 3.11, numpy 2.4) the
calibration takes 0.28 to 0.45 s; ``NOMINAL_S`` is its time in a fast
phase there, so the scaled times read as seconds on that host.

Start-up time drifts with the host too, but it is file access, page
faults and module execution more than arithmetic, and ``calibration_s``
follows it poorly.  So each set-up sample is scaled instead by
``STARTUP_NOMINAL_S`` over the wall time of a bare interpreter running
``STARTUP_CODE``, spawned just before it.  numpy is most of what a CLI
invocation imports (about 150 of 180 ms); the scaled sample still moves by
the same share as the unscaled one when anomtax's own import cost changes.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.3
STARTUP_CODE = "import numpy"
STARTUP_NOMINAL_S = 0.18

PY_LOOP = 600_000
SMALL_OPS = 8_000
BIG_POINTS = 1_500
BIG_REPEATS = 2


def calibration_s() -> float:
    """Wall time of the fixed reference work, in seconds."""
    rng = np.random.default_rng(0)
    batch = rng.standard_normal((136, 2))
    w1 = rng.standard_normal((2, 10))
    w2 = rng.standard_normal((10, 4))
    points = rng.standard_normal((BIG_POINTS, 2))

    start = time.perf_counter()
    acc = 0
    for i in range(PY_LOOP):
        acc += i * i % 7
    total = 0.0
    for _ in range(SMALL_OPS):
        out = np.tanh(batch @ w1) @ w2
        total += float((out * out).sum())
    for _ in range(BIG_REPEATS):
        diff = points[:, None, :] - points[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=-1))
        dist.sort(axis=1)
    return time.perf_counter() - start
