"""Reference-speed timing on a machine whose cores change speed under us.

The machine this benchmark was built on shares its cores with other
tenants, and a core's speed swings by 20-40 % within a second (see
README.md).  A Sampler runs a short calibration loop (pure Python,
independent of sievelab) from a SIGALRM handler every INTERVAL_S seconds
while timed work runs in the same process, so the samples see the same core
at the same moments as the work.  Timed work is then reported in
reference-speed seconds: wall seconds, minus the time the handler took,
times CAL_REF_S over the mean sample.

Child processes report their samples with `python3 bench/timed.py`, which
runs `-m MODULE ARGS` or `-c CODE` under a Sampler and appends one line
starting with REPORT to its standard error.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.1
CAL_LOOPS = 50_000
CAL_REF_S = 0.004  # the loop's median time on the machine of README.md
REPORT = "bench-speed"


def calibration_sample() -> float:
    """Seconds the calibration loop takes now on this CPU."""
    start = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOPS):
        acc += i * i
    return time.perf_counter() - start


class Sampler:
    """Calibration samples taken every INTERVAL_S seconds while active."""

    def __init__(self):
        self.samples: list[float] = [calibration_sample()]
        self.stolen = 0.0  # seconds spent in the handler
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(calibration_sample())
        self.stolen += time.perf_counter() - start

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def speed(self, first: int = 0) -> float:
        """Reference seconds per wall second, from the samples since `first`."""
        samples = self.samples[first:] or self.samples[-1:]
        return CAL_REF_S / statistics.fmean(samples)


def parse_report(stderr: str) -> tuple[str, float, float]:
    """Split a timed child's stderr into (its own stderr, stolen, speed)."""
    head, _, tail = stderr.rpartition(REPORT + " ")
    stolen, speed = (float(v) for v in tail.split())
    return head.rstrip("\n"), stolen, speed
