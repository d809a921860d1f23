"""Host-speed probe: a fixed reference kernel timed between the ops.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to about 1.8x within seconds and from minute to minute (a pure-Python
loop alone does), so the raw median op time of a run says as much about
the neighbours as about the program.  The probe is a fixed amount of work
of the four kinds an orthofit op is made of: interpreter bytecode, many
small numpy calls, elementwise passes over an L2-sized array and gemv on a
16 MB array.  It takes about 0.11 s.  Untraced runs run it before each
set-up pass, after the last one and after each op, so every timed stretch
has a probe on either side.

A time at reference speed is the measured time scaled by ``REFERENCE_S``
over the mean of the probes on either side of it: what it would read on a
host where the probe takes ``REFERENCE_S`` seconds.  The probe is not part
of the program, so a change to orthofit moves the scaled times as it moves
the raw ones; the host's drift is divided out.
"""

import statistics
import time

REFERENCE_S = 0.110

PY_ITERS = 250_000
SMALL_CALLS = 8_000
VEC_PASSES = 400
GEMV_CALLS = 60


class HostProbe:
    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.np = np
        self.small = np.ones(80)
        self.vec = rng.standard_normal(100_000)
        self.mat = rng.standard_normal((2000, 1000))
        self.x = np.ones(1000)
        self.times: list[float] = []

    def __call__(self) -> float:
        """Run the probe once; returns and records its wall time."""
        np, small, vec, mat, x = self.np, self.small, self.vec, self.mat, self.x
        t0 = time.perf_counter()
        s = 0
        for i in range(PY_ITERS):
            s += i * i % 7
        for _ in range(SMALL_CALLS):
            small.dot(small + 1.0)
        for _ in range(VEC_PASSES):
            np.multiply(vec, 1.0001).sum()
        for _ in range(GEMV_CALLS):
            mat.dot(x)
        t = time.perf_counter() - t0
        self.times.append(t)
        return t

    def scaled(self, wall_s: float, before: int) -> float:
        """``wall_s`` at reference speed, for a stretch that ran between
        probe ``before`` and the probe after it."""
        pair = self.times[before:before + 2]
        return wall_s * REFERENCE_S / statistics.fmean(pair)

    def scale(self, first: int, last: int) -> float:
        """Factor to reference speed from the median of probes
        ``first`` to ``last``, inclusive."""
        return REFERENCE_S / statistics.median(self.times[first:last + 1])
