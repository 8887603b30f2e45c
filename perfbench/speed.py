"""Speed probe: times scaled to a reference CPU speed.

On a shared machine the CPU this process runs on is sometimes about 40%
slower than at other times, for stretches of 10 to 40 s, whatever the
process does.  A wall time then says as much about the neighbours as about
esbiii.  The probe measures the machine's speed with a fixed pure-Python
loop, and scaled(t0, t1) converts a wall interval into the time it would
have taken at the reference speed, where the loop takes REF_LOOP_S: each
piece of the interval, about PIECE_S long, is multiplied by REF_LOOP_S
over the median loop time measured in that piece.

Loop times come from two places:

* burst(), called between the benchmark's operations, outside every
  measured interval: BURST loops in a row;
* a timer signal every INTERVAL_S seconds of wall time, which Python
  handles between the program's bytecodes.  Long jobs (fits, CLI commands)
  would otherwise see the machine's speed only at their ends.  After a
  large numpy call the interpreter's own code is cold and the first loop
  runs up to twice as slow, so the handler runs the loop WARMUP times
  before the one it records; the recorded time then matches the bursts'
  whatever ran before it.  The handler's cost (about 1.5% of the wall
  time) stays inside the measured intervals.

A piece with fewer than MIN_SAMPLES samples (a 1e6-element kernel call
gets one timer sample, after it returns) is scaled by its own samples and
the bursts on either side of it, so scale an interval only after the burst
that follows it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.005
REF_LOOP_S = 20e-6  # the warm loop's time in this machine's fast stretches
PIECE_S = 1.0  # longer intervals are scaled piece by piece
WARMUP = 2
BURST = 16
MIN_SAMPLES = 16


def loop_time():
    """Wall time of the fixed reference loop."""
    t = time.perf_counter()
    s = 0
    for i in range(400):
        s += i * i
    return time.perf_counter() - t


def warm_loop_time():
    for _ in range(WARMUP):
        loop_time()
    return loop_time()


class SpeedProbe:
    """Loop times with their perf_counter stamps, from bursts and the timer."""

    def __init__(self):
        self.stamps = []
        self.loops = []

    def _record(self, d):
        self.stamps.append(time.perf_counter())
        self.loops.append(d)

    def _sample(self, signum, frame):
        self._record(warm_loop_time())

    def burst(self):
        """BURST loop times in a row; call it between measured intervals."""
        for _ in range(BURST):
            self._record(loop_time())

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _loop_median(self, a, b):
        lo = bisect.bisect_left(self.stamps, a)
        hi = bisect.bisect_right(self.stamps, b)
        if hi - lo < MIN_SAMPLES:
            lo, hi = max(0, lo - BURST), min(len(self.stamps), hi + BURST)
        if hi == lo:
            raise RuntimeError("speed probe has no samples; was it started?")
        return statistics.median(self.loops[lo:hi])

    def scaled(self, t0, t1):
        """Seconds from t0 to t1 (perf_counter values) at the reference speed."""
        pieces = max(1, round((t1 - t0) / PIECE_S))
        width = (t1 - t0) / pieces
        return sum(
            width * REF_LOOP_S / self._loop_median(t0 + j * width, t0 + (j + 1) * width)
            for j in range(pieces)
        )
