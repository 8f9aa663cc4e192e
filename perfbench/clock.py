"""Times in reference seconds: wall time scaled by the speed of this CPU.

The machines this benchmark runs on are shared, and the speed of one core
changes by ±25% over tens of seconds as other tenants come and go.  Over the
same interval, a raw wall time of the same work moves by as much.  So while
work is measured, a SIGALRM handler runs a fixed loop of exact rational
arithmetic (pure Python, like the package) every INTERVAL_S of wall time
and records how long the loop took.  Work that took `raw` seconds while the
loop took `cal` seconds on average is reported as

    (raw - time spent in the loop) * REFERENCE_S / cal

seconds at the reference speed: the speed at which the loop takes
REFERENCE_S.  The loop does not use the package, so a change to the package
moves only `raw`.  The handler runs between bytecodes of the main thread and
costs about 1% of the measured time.  Raw seconds are reported next to the
scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.01
# Never change: every reported time is relative to it.
REFERENCE_S = 1e-4
# A window with fewer samples is scaled by every sample taken so far.
MIN_SAMPLES = 5

_TERMS = [Fraction(1, i) for i in range(1, 41)]


def _loop() -> Fraction:
    total = Fraction(0)
    for term in _TERMS:
        total += term
    return total


class SpeedProbe:
    """Samples of the calibration loop, taken every INTERVAL_S while started."""

    def __init__(self):
        self.samples: list[float] = []
        for _ in range(2 * MIN_SAMPLES):  # so that every window has a fallback
            self._sample()

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _loop()
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.samples)

    def reference_seconds(self, raw: float, since: int, until: int) -> float:
        """`raw` wall seconds measured between marks `since` and `until`, in
        reference seconds."""
        window = self.samples[since:until]
        net = raw - sum(window)
        if len(window) < MIN_SAMPLES:
            window = self.samples
        return net * REFERENCE_S / statistics.fmean(window)
