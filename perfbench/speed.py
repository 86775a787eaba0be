"""Machine-speed probe: a fixed kernel timed at regular intervals during a run.

The shared VM the baseline was measured on changes speed by ±20% over tens
of seconds and minutes (other tenants on the same cores), which no amount of
repetition inside a 35 s run averages out.  The probe measures the machine's
speed at the same moments the workload runs: a SIGALRM timer interrupts the
run every ``INTERVAL_S`` and times ``KERNEL`` (about 1.6 ms of numpy, banded
solves and one PCHIP build, the same library calls the package makes).  The
time spent in the probe is subtracted from the measured interval, and the
result is scaled by ``REF_S / median(probe times)``: seconds at the speed the
reference machine has when the kernel takes ``REF_S``.

The kernel uses only numpy/scipy, never ``congested_ns``, so a change to the
package cannot move the yardstick.  Changing the kernel, ``REF_S`` or
``INTERVAL_S`` rescales every timing: it is a change of the benchmark.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.linalg import solve_banded

INTERVAL_S = 0.25
REF_S = 1.6e-3

_X = np.linspace(0.0, 50.0, 2049)
_XS = np.linspace(0.0, 30.0, 1025)
_YS = np.exp(-_XS)
_AB = np.zeros((3, 2047))
_AB[1] = 4.0
_AB[0, 1:] = -1.0
_AB[2, :-1] = -1.0


def kernel() -> float:
    """One probe: the fixed kernel's wall time in seconds."""
    t0 = time.perf_counter()
    for k in range(8):
        y = np.exp(-_X * (0.5 + 1e-3 * k))
        z = np.log1p(y) / (1.0 + y)
        solve_banded((1, 1), _AB, z[1:-1])
    PchipInterpolator(_XS, _YS, extrapolate=False)(_XS[:500] + 0.1)
    return time.perf_counter() - t0


class SpeedProbe:
    """Times ``kernel`` every ``INTERVAL_S`` while active (a context manager)."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(kernel())

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self) -> float:
        """Total seconds spent inside the probe so far."""
        return sum(self.samples)

    def factor(self, extra: int = 3) -> float:
        """``REF_S / median`` probe time; tops up to ``extra`` samples if short."""
        while len(self.samples) < extra:
            self.samples.append(kernel())
        return REF_S / statistics.median(self.samples)
