"""The machine's speed, sampled while a pass runs.

On a shared machine the speed of a core drifts by tens of percent over
seconds to minutes (other tenants, frequency changes), so the wall time of
the same pass spreads by about as much from run to run.  A ``SpeedSampler``
interrupts the pass every ``PERIOD_S`` with SIGALRM and times a fixed loop
in the handler, on the same core and at the same moments as the pass.  The
loop does what permlie's inner loops do (tuple keys, dict lookups and
stores, small integer arithmetic, a sort); on this machine its time tracks
the passes' own slowdown far better than a bare arithmetic loop.  The mean
loop time against ``REFERENCE_S`` gives the pass's slowdown; dividing the
pass's wall time by it gives the time the pass would take at the reference
speed.  Sampling costs about 1% of a pass, and its time is taken out of the
wall time.
"""

import signal
import statistics
import time

PERIOD_S = 0.02
# Time of one calibration loop at the reference speed: a 2-core x86-64
# machine with Python 3.11 at its typical speed.
REFERENCE_S = 0.0002


def calibration_loop():
    d = {}
    for i in range(400):
        k = ("Tee", i % 23)
        v = d.get(k)
        d[k] = (v or 0) + i * 3 // 7
    return sorted(d.items())


class SpeedSampler:
    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        calibration_loop()
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        """Stop sampling; returns the seconds the samples took."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        return sum(self.samples)

    def slowdown(self):
        """Mean loop time over the reference time: 1.2 means the pass ran
        at 1/1.2 of the reference speed."""
        if not self.samples:
            self._tick(None, None)
        return statistics.fmean(self.samples) / REFERENCE_S
