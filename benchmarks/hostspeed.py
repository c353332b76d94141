"""Host-speed correction for wall times measured on a shared machine.

On a shared virtual machine the same pass can take from 1x to 1.9x
its time, in phases that last from seconds to minutes (README.md).
``SpeedSampler`` measures that speed while a pass runs: every
``PERIOD_S`` seconds a timer signal runs the fixed calibration
``kernel`` between two bytecodes of the pass and records how long it
took.  The pass's corrected time is its own time (the kernel's time
taken out) times the mean speed of the kernel over the pass, relative
to ``REFERENCE_S``: the time the pass would have taken at the speed at
which the kernel takes ``REFERENCE_S``.

The kernel is benchmark code and never calls ``transvect``, so a change
to the library moves the corrected time exactly as it moves the raw
time.  It does small numpy products and dict-of-monomial polynomial
arithmetic, like the workloads: the host slows kinds of work by
different amounts, and of the kernels tried this one slowed most
nearly as much as the workloads did.  Changing the kernel or
``REFERENCE_S`` changes the unit of every corrected time: do it only
together with a new baseline.
"""

import signal
import statistics
import time

import numpy as np

REFERENCE_S = 1.0e-3
PERIOD_S = 0.04


_G = np.array([[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 3], [4, 0, 0, 1]],
              dtype=np.int64)
_ROWS = [np.array([i % 9, i * 2 % 9, i * 5 % 9, 1], dtype=np.int64)
         for i in range(64)]


def _small_numpy():
    seen = {}
    for r in _ROWS:
        for _ in range(3):
            r = (r @ _G) % 9
            seen[r.tobytes()] = len(seen)
    return len(seen)


class _Poly:
    """A polynomial as {exponent tuple: coefficient}."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return _Poly({e: c for e, c in out.items() if c})

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return _Poly({e: c for e, c in out.items() if c})


_A = [[_Poly({(1, 0, 0): 3, (0, 1, 0): 1}), _Poly({(0, 0, 1): 2})],
      [_Poly({(0, 0, 0): 1}), _Poly({(1, 1, 0): 5, (0, 0, 0): 1})]]


def _poly_matrix():
    a = _A
    for _ in range(3):
        a = [[a[i][0] * _A[0][j] + a[i][1] * _A[1][j] for j in range(2)]
             for i in range(2)]
    return len(a[0][0].terms)


def kernel():
    """The fixed calibration work: about REFERENCE_S on a fast host."""
    return _small_numpy() + _poly_matrix() + _poly_matrix()


class SpeedSampler:
    """Context manager that times its block and samples host speed
    while it runs.

    Only one may be active at a time, in the main thread: it owns the
    process's SIGALRM handler and real-time interval timer, and puts
    back the previous handler on exit.
    """

    def __init__(self, period_s=PERIOD_S):
        self.period_s = period_s
        self.samples = []
        self.busy_s = 0.0
        self.elapsed_s = 0.0
        self._busy = False
        self._previous = None
        self._t0 = 0.0

    def _sample(self):
        t0 = time.perf_counter()
        kernel()
        seconds = time.perf_counter() - t0
        self.samples.append(seconds)
        return seconds

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            self.busy_s += self._sample()
        finally:
            self._busy = False

    def __enter__(self):
        self.samples = []
        self.busy_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.elapsed_s = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self._sample()
        return False

    @property
    def own_s(self):
        """Wall time of the block without the calibration kernel."""
        return self.elapsed_s - self.busy_s

    def speed(self):
        """Mean host speed over the block; 1.0 is reference speed."""
        return statistics.fmean(REFERENCE_S / d for d in self.samples)

    def corrected_s(self):
        """``own_s`` at reference speed."""
        return self.own_s * self.speed()
