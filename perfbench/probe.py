"""Machine-speed probe: a fixed numpy/scipy kernel timed next to every op.

The 2-vCPU virtual machines this benchmark runs on change speed by 30-60 %
over minutes, with the code unchanged, and a 32-second run cannot average
that out.  The probe is timed before and after each set-up and each stage of
an op, and those seconds are rescaled to what they would be with the probe at
its reference time::

    t_ref = t_measured * REFERENCE_S / mean(probe before, probe after)

The probe touches the kinds of work the library does -- an interpreter
loop, Euler-style updates on an 8000-vector, a 129x129 LU factor and solve,
and a min over a (41, 61, 129) control stack -- and nothing of
``levy_multiscale``, so a faster library moves ``t_ref`` by exactly as much
as it moves ``t_measured``.  Its inputs are fixed, not drawn from the
workload seed.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
import scipy.linalg

#: Median probe time, in seconds, on the reference machine (2 vCPU Intel Xeon,
#: numpy 2.4.6, scipy 1.17.1, BLAS cap 2) at about its faster speed.
REFERENCE_S = 0.011
#: Probe kernels timed per measurement; the median is taken.
REPEATS = 5

_rng = np.random.default_rng(0)
_LU = _rng.standard_normal((129, 129)) + 129.0 * np.eye(129)
_RHS = _rng.standard_normal(129)
_PATHS = _rng.standard_normal(8000)
_CONTROLS = _rng.standard_normal((41, 61, 129))


def _kernel() -> float:
    s = 0.0
    for i in range(20_000):
        s += math.sin(i * 0.5)
    g = np.random.default_rng(1)
    x = _PATHS.copy()
    for _ in range(20):
        x = x + 0.01 * np.tanh(x) * g.standard_normal(x.size)
    for _ in range(10):
        scipy.linalg.lu_solve(scipy.linalg.lu_factor(_LU), _RHS)
    np.min(_CONTROLS * 0.5 + _CONTROLS * _CONTROLS, axis=0)
    return s + float(x[0])


def measure() -> float:
    """Median seconds of one probe kernel, right now."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def at_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two probes, rescaled to the reference speed."""
    return seconds * REFERENCE_S / (0.5 * (before + after))


class Stopwatch:
    """Times an op stage by stage, probing between stages.

    Call the instance where a stage ends.  ``raw_s`` sums the stage times
    without the probes; ``ref_s`` sums each stage rescaled by the probes on
    either side of it.
    """

    def __init__(self, before: float, clock=time.perf_counter):
        self.clock = clock
        self.probes = [before]
        self.raw_s = self.ref_s = 0.0
        self._t0 = clock()

    def __call__(self) -> None:
        dt = self.clock() - self._t0
        self.probes.append(measure())
        self.raw_s += dt
        self.ref_s += at_reference(dt, *self.probes[-2:])
        self._t0 = self.clock()
