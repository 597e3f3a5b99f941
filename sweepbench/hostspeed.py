"""Host speed, from a fixed calibration chunk that does not use gbsopt.

The benchmark runs on a shared host whose speed drifts by 20-50% over
seconds to minutes, while the process keeps its CPU (CPU time tracks wall
time and no steal time shows).  No hardware counters are exposed, so the
benchmark measures the host instead: it runs a fixed chunk of work at
short, even intervals during each timed phase (``Sampler``), or in slices
on either side of a phase it cannot interrupt (``calibrate``).  The
phase's wall time, less the chunks run inside it, is then rescaled to the
host speed at which a chunk takes ``NOMINAL_CHUNK_S``::

    host_seconds = work_seconds * NOMINAL_CHUNK_S / mean_chunk_seconds

The mean, not the median, is taken: a phase's time integrates the host's
speed over the phase, and evenly spaced chunks sample that integral.

The chunk is the same kind of work gbsopt's kernels do: a Python loop
over subsets, each gathering a small submatrix of a fixed covariance and
taking its determinant with numpy.  Only numpy and this file run in it,
so no change to gbsopt can move it.
"""

import signal
import statistics
import time

import numpy as np

#: chunk time on the reference host; times are reported as if on it
NOMINAL_CHUNK_S = 0.010
#: seconds between chunks run inside a phase
SAMPLE_INTERVAL_S = 0.2

_N = 10
_SUBSETS = 600


def _make_chunk():
    rng = np.random.default_rng(20231207)
    a = rng.uniform(-0.1, 0.1, (_N, _N))
    lam, vec = np.linalg.eigh(a + a.T)
    ch = (vec * np.cosh(2.0 * lam)) @ vec.T
    sh = (vec * np.sinh(2.0 * lam)) @ vec.T
    sigma = 0.5 * np.block([[ch, sh], [sh, ch]]) + 0.5 * np.eye(2 * _N)
    index_sets = []
    for mask in range(1, _SUBSETS + 1):
        modes = [i for i in range(_N) if (mask >> i) & 1]
        index_sets.append(modes + [m + _N for m in modes])

    def chunk():
        total = 0.0
        for ix in index_sets:
            total += 1.0 / np.sqrt(np.linalg.det(sigma[np.ix_(ix, ix)]))
        return total

    return chunk


_chunk = _make_chunk()


def _timed_chunk():
    start = time.perf_counter()
    _chunk()
    return time.perf_counter() - start


def calibrate(seconds):
    """Chunk times from running the chunk back to back for ``seconds``."""
    times = []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        times.append(_timed_chunk())
    return times


def host_seconds(work_s, chunk_times):
    """``work_s`` wall seconds, rescaled by the chunk times measured with it."""
    return work_s * NOMINAL_CHUNK_S / statistics.fmean(chunk_times)


class Sampler:
    """Runs the chunk every ``SAMPLE_INTERVAL_S`` while the block runs.

    The chunks run from a SIGALRM handler, so they fall evenly over the
    phase and see the host as the phase does.  ``times`` holds their
    durations; the phase's own work is its wall time less their sum.
    """

    def __init__(self):
        self.times = []

    def _sample(self, signum, frame):
        self.times.append(_timed_chunk())

    def __enter__(self):
        self.times = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
