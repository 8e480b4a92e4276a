"""Machine-speed probe used to rescale sweep times to a reference speed.

On a shared host the speed a process gets drifts by a fifth or more over
seconds to minutes with other tenants' load: the same `validate` sweep,
fixed input, has read 1.7 s and 2.9 s in back-to-back sweeps, and CPU time
moves with it.  `probe()` times a fixed mix of interpreter work and a LAPACK
solve that shares no code with speclab, so a change to speclab leaves it
alone.  A sweep probes before its first call and after every call and
rescales each call's wall time by REF_PROBE_S over the mean of the probes on
either side; the result reads in seconds at the speed at which the probe
takes REF_PROBE_S.

Code slows by different amounts: on one VM, large dense solves drifted about
half as much as the probe and per-entry Python loops about 1.4 times as
much.  Each workload mixes both, so over a sweep the rescaled time keeps a
few percent of the drift.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Sets only the unit of the rescaled times: the probe took about 12 and 17 ms
# at the two speeds of a 2-core cloud VM.
REF_PROBE_S = 0.015
REPEATS = 3  # the probe reports its fastest repeat, so an interrupt is not read as drift

_M = np.random.default_rng(0).standard_normal((320, 320))
_M = _M @ _M.T


def _interpreter_work() -> int:
    acc = 0
    for i in range(100000):
        acc += i * i
    return acc


def probe() -> float:
    """Seconds for one pass of the fixed mix (fastest of REPEATS)."""
    best = math.inf
    for _ in range(REPEATS):
        t = time.perf_counter()
        _interpreter_work()
        np.linalg.eigvalsh(_M)
        best = min(best, time.perf_counter() - t)
    return best
