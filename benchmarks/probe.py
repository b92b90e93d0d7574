"""Fixed speed probes, timed between rounds to track the machine's speed.

A shared 2-vCPU virtual machine can change speed by up to 2x over tens of
seconds (a neighbour's load, not scheduling: CPU time tracks wall time).
A probe is a small fixed kernel that never touches the package.
Timing it just before and after a round says how fast the machine ran
that round.  Dividing the round's time by the probe's slowdown gives its
time at the reference speed.

A workload is scaled by the summed time of some of three kernels: a
pure-Python loop, interpreter-bound per-row numpy at desk shape, and
BLAS-2 matvecs at paper shape.  Each workload names the kernels that match
the work in its rounds; no one mix kept every workload steady (see
README.md).  A reading times every kernel, each as the median of three
runs, so a short hiccup does not scale a whole round; the run record keeps
every reading.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Seconds each kernel takes on a shared 2-vCPU x86-64 VM (numpy 2.4,
# OpenBLAS 0.3.31, one BLAS thread) in its fast state; scaled times are
# quoted at this speed.
REFERENCE_S = {"python": 0.007, "desk": 0.006, "paper": 0.022}


class Probe:
    def __init__(self):
        gen = np.random.default_rng(0)
        self._desk = (gen.uniform(-0.5, 0.5, (32, 16)), gen.uniform(-0.5, 0.5, (16, 32)))
        self._paper = (gen.uniform(-0.07, 0.07, (500, 784)), gen.uniform(-0.07, 0.07, (784, 500)))

    @staticmethod
    def _python() -> None:
        acc = 0
        for i in range(100_000):
            acc += i * i % 7

    @staticmethod
    def _forward(weights, steps: int) -> None:
        W, V = weights
        v = np.full(W.shape[1], 0.5)
        for _ in range(steps):
            h = np.tanh(W @ v)
            v = 1.0 / (1.0 + np.exp(-(V @ h)))

    def read(self) -> dict[str, float]:
        """Seconds each kernel takes now, as the median of three runs."""
        run = {
            "python": self._python,
            "desk": lambda: self._forward(self._desk, 1500),
            "paper": lambda: self._forward(self._paper, 80),
        }
        readings = {}
        for name, kernel in run.items():
            times = []
            for _ in range(3):
                t0 = perf_counter()
                kernel()
                times.append(perf_counter() - t0)
            readings[name] = sorted(times)[1]
        return readings


def slowdown(readings: dict[str, float], kernels: tuple[str, ...]) -> float:
    """How much slower than the reference speed the named kernels ran."""
    return sum(readings[name] for name in kernels) / sum(REFERENCE_S[name] for name in kernels)
