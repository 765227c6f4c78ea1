"""A fixed probe of how fast the machine runs right now.

On a shared VM the speed of identical CPU-bound work drifts by up to 2x
within tens of seconds, and the process's CPU time drifts with it, so
neither the wall time nor the CPU time of the program alone is steady.
The probe is a fixed block of work with the same make-up as okmlib's hot
loops (Python loops over numpy scalars and short rows, as in the Jacobi
sweep and the per-point assignment); it uses no okmlib code.  Sampled
while the program runs, its mean time gives the speed the program ran at,
and `normalise` turns the program's wall time into seconds at the speed
at which one probe block takes `REFERENCE_S`.
"""

import signal
import statistics
import time

import numpy as np

# One block's time on a quiet 2-vCPU Xeon VM; normalised times are
# seconds at that speed.
REFERENCE_S = 0.05
ROTATIONS = 5000  # per block
SIZE = 150
INTERVAL_S = 0.5  # between samples while a Sampler is active
_START = np.random.default_rng(0).standard_normal((SIZE, SIZE))
_START = _START + _START.T


def probe(blocks=1):
    """Mean seconds per block of ROTATIONS Givens rotations of a fixed matrix."""
    m = _START.copy()
    rotations = blocks * ROTATIONS
    start = time.perf_counter()
    with np.errstate(all="ignore"):
        while True:
            for p in range(SIZE - 1):
                for q in range(p + 1, SIZE):
                    apq = m[p, q]
                    theta = (m[q, q] - m[p, p]) / (2.0 * apq)
                    t = np.sign(theta) / (abs(theta) + np.sqrt(1.0 + theta * theta))
                    c = 1.0 / np.sqrt(1.0 + t * t)
                    s = t * c
                    rp = m[p, :].copy()
                    rq = m[q, :].copy()
                    m[p, :] = c * rp - s * rq
                    m[q, :] = s * rp + c * rq
                    rotations -= 1
                    if rotations == 0:
                        return (time.perf_counter() - start) / blocks


def normalise(seconds, samples):
    """Wall `seconds` that ran while the probe took `samples`, at reference speed.

    The speed is the mean of 1 / sample, so the harmonic mean of the
    samples: samples taken at even steps of wall time weigh each moment
    equally, and the work done is speed integrated over time.
    """
    return seconds * REFERENCE_S / statistics.harmonic_mean(samples)


class Sampler:
    """Runs one probe block every INTERVAL_S of wall time while active.

    The samples come from a SIGALRM handler, so they land inside the
    timed code at even steps of wall time; `busy` is the time they took,
    to be taken off the wall time they interrupted.
    """

    def __init__(self):
        self.samples = []
        self.busy = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(probe())
        self.busy += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S / 2, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
