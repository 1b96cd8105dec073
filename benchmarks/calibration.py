"""A fixed calibration loop that measures how fast the machine runs right now.

The machine is shared: other tenants slow the hardware itself, by up to about
60 %, for seconds to minutes at a time, and a whole 60 s run can fall inside
such a spell.  The loop below does a fixed amount of work of the kind that
dominates the program's small-batch paths - many numpy calls on a batch of
eight 8-qubit states, each cheap enough that interpreter and dispatch overhead
count as much as arithmetic, plus some pure-Python bookkeeping - and uses
nothing of the program, so no change to the program moves its time.  The run
times it before each phase of every round; the ratio of the lower quartile of
its times in the run to ``REFERENCE_S`` says how much slower than on the
reference machine it ran, and the end-to-end timings are scaled by it.
"""
from __future__ import annotations

import time

import numpy as np

# the loop's time on the reference machine (2 vCPUs of a shared Intel Xeon host
# at 2.1 GHz, one BLAS thread): the lower quartile of a 60 s run's loops there
# was 0.35 to 0.37 s in quiet spells
REFERENCE_S = 0.36

_REPS = 400
_rng = np.random.default_rng(2110)
_STATES = _rng.normal(size=(8, 256)) + 1j * _rng.normal(size=(8, 256))
_GATES = _rng.normal(size=(16, 4, 4)) + 1j * _rng.normal(size=(16, 4, 4))
_GATES /= np.abs(_GATES).sum(axis=(1, 2), keepdims=True)


def calibrate(reps: int = _REPS) -> float:
    """Wall time of ``reps`` passes of the fixed loop, in seconds."""
    start = time.perf_counter()
    for _ in range(reps):
        s = _STATES
        for k, gate in enumerate(_GATES):
            q = k % 7
            view = s.reshape(8, 1 << q, 4, -1)
            s = np.einsum("ij,bajc->baic", gate, view).reshape(8, 256)
            s = s / np.linalg.norm(s, axis=1, keepdims=True)
        weights = {i: float(abs(s[0, i])) for i in range(64)}
        sum(sorted(weights.values()))
    return time.perf_counter() - start
