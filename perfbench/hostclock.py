"""Host-speed calibrated timing.

On a 2-vCPU virtual machine shared with other tenants, the same code was
measured running up to 2.2 times slower for stretches of seconds to
minutes, with process CPU time slowing as much as wall time, so neither
clock is steady on its own.  A fixed piece of pure-Python work, the
calibration loop, slows with it.  So every latency is reported in
*reference seconds*: the raw time scaled by ``REFERENCE_S`` over the time
the calibration loop took while the measured code ran.  ``REFERENCE_S`` is
what the loop takes on a quiet host, so on a quiet host reference seconds
equal seconds.

The loop does not touch ``substdyn``, so a change to the program moves
reference seconds just as it moves seconds on a steady host.  A loop with
a larger working set tracked ``substdyn`` worse.

Calibration samples are taken right before and right after the measured
code and, while it runs, from a ``SIGVTALRM`` handler every
``SAMPLE_EVERY_S`` of process CPU time, so that a slow spell in the middle
of a long operation is seen.  The handler's own time is taken out of the
raw time.
"""

from __future__ import annotations

import signal
import statistics
import time

# One calibration sample is the fastest of CAL_TRIES runs of the loop.
CAL_STEPS = 1200
CAL_TRIES = 3
SAMPLE_EVERY_S = 0.03
# Fastest-of-three loop time on a quiet 2.0 GHz Xeon vCPU, Python 3.11.
REFERENCE_S = 0.00055

_WORD = "abaababaabaababaababaabaababaabaababaababaaba"


def _loop() -> int:
    counts: dict[str, int] = {}
    for i in range(CAL_STEPS):
        word = _WORD[i % 37:i % 37 + 8]
        counts[word] = counts.get(word, 0) + len(frozenset(word))
    return len(counts)


def calibrate() -> float:
    """Seconds the calibration loop takes now (fastest of CAL_TRIES)."""
    best = float("inf")
    for _ in range(CAL_TRIES):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best


class Timing:
    """Raw and reference seconds of one measured call."""

    __slots__ = ("raw_s", "ref_s", "samples")

    def __init__(self, raw_s: float, samples: list[float]):
        self.raw_s = raw_s
        self.samples = samples
        self.ref_s = raw_s * REFERENCE_S / statistics.fmean(samples)


def measure(fn):
    """Call ``fn()``; returns (its result, Timing).  An exception from
    ``fn`` propagates after the sampling timer is stopped."""
    samples = [calibrate()]
    in_handler = [0.0]

    def sample(signum, frame):
        start = time.perf_counter()
        samples.append(calibrate())
        in_handler[0] += time.perf_counter() - start

    previous = signal.signal(signal.SIGVTALRM, sample)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        raw = time.perf_counter() - start - in_handler[0]
        signal.signal(signal.SIGVTALRM, previous)
    samples.append(calibrate())
    return result, Timing(raw, samples)
