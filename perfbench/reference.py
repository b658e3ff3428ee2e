"""Reference kernel: a fixed amount of solver-shaped work in plain numpy.

The benchmark machine shares its host with other tenants, and the host's
speed drifts over seconds to minutes. In back-to-back 30-second runs,
`mc-study` completed from 7.4 to 11.4 trials/s. The workload and this kernel run
interleaved in one process, so they slow down together. The benchmark
therefore reports its timings in units of the kernel's mean time in the
same run.

Each part of a pass runs a fixed number of normalized fixed-point
iterations ``w <- f(w) / max f(w)``, with ``f`` the paper's bandwidth-demand
map. At 60 links that work is interpreter-bound, and at 600 links it is
matrix-vector-bound. The kernel never imports flexlink, so no change to the
program can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

INTERPRETER_BOUND = (60, 1500)    # (links, iterations): about 25 ms
MATVEC_BOUND = (600, 200)          # about 25 ms
# The parts whose cost each workload's own work resembles.  The study venue
# and the K=300 budget points mix both kinds of work.  The K=1000 solves are
# matrix-vector-bound; a 2000-link part jumped 2x between runs while those
# solves held steady, so the 600-link part stands in for them.
PARTS = {
    "mc-study": (INTERPRETER_BOUND, MATVEC_BOUND),
    "budget-sweep": (INTERPRETER_BOUND, MATVEC_BOUND),
    "venue-large": (MATVEC_BOUND,),
}


class _Part:
    def __init__(self, n: int, iterations: int, rng):
        self.iterations = iterations
        self.v = rng.uniform(1e-9, 1e-6, (n, n))
        np.fill_diagonal(self.v, 0.0)
        self.gain = rng.uniform(1e-7, 1e-5, n)
        self.demand = rng.uniform(1e4, 5e7, n)
        self.p = np.full(n, 1e-2)

    def _demand_map(self, w):
        interference = (self.v @ (self.p * w) + 1e-13) / self.gain
        rate = 180e3 * np.log2(1.0 + self.p / interference)
        return self.demand / (25 * rate)

    def run(self):
        w = np.zeros_like(self.p)
        for _ in range(self.iterations):
            f = self._demand_map(w)
            w = f / float(np.max(f))
        if not np.all(np.isfinite(w)):
            raise RuntimeError("reference kernel produced non-finite values")


class Reference:
    def __init__(self, workload: str):
        rng = np.random.default_rng(20160718)
        self.parts = [_Part(n, iterations, rng) for n, iterations in PARTS[workload]]
        self.samples = []

    def run(self):
        """Time one pass of the kernel and keep the sample."""
        start = time.perf_counter()
        for part in self.parts:
            part.run()
        self.samples.append(time.perf_counter() - start)

    def mean_s(self) -> float:
        """The unit of the normalized metrics: the mean, not the median,
        because a run's rates average over the whole run too."""
        return statistics.fmean(self.samples)
