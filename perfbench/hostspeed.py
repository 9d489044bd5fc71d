"""How fast the host is running right now, from a fixed calibration kernel.

On a shared 2-vCPU host the same round takes 0.8x to 2x its usual time
for stretches of tens of seconds, because neighbouring tenants compete for
the cores, their caches and memory bandwidth. Those stretches are longer than
a benchmark run, so averaging rounds inside a run cannot remove them.

The benchmark therefore times a small fixed kernel right before every
timed round and every timed set-up, outside the timed region. Each part of
the kernel exercises one resource a round uses -- interpreter dispatch
over small numpy arrays, a BLAS matrix product, a memory-bound pass over a
large array -- and its time divided by the part's nominal time is that
resource's current slowness. A workload weighs the parts by what its
rounds spend time on; the weighted slowness divides the measured seconds,
giving seconds at the nominal host speed. The kernel never touches the
program, so a change to the program scales the normalised numbers as it
scales the raw ones; raw numbers are kept in the run's details file.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from typing import Deque, Dict

import numpy as np

__all__ = ["HostSpeed", "NOMINAL_S", "WINDOW"]

#: Kernel timings the slowness is the median of.
WINDOW = 5

#: Median time of each part on the reference host (a 2-vCPU x86-64 VM,
#: OpenBLAS with 2 threads) while it ran at its usual speed.
NOMINAL_S: Dict[str, float] = {
    "interpreter": 1.65e-3,
    "blas": 1.22e-3,
    "memory": 1.55e-3,
}


class HostSpeed:
    """Times the calibration kernel; returns the weighted slowness."""

    def __init__(self, weights: Dict[str, float]) -> None:
        unknown = set(weights) - set(NOMINAL_S)
        if unknown or not weights:
            raise ValueError(f"calibration weights {weights} must name "
                             f"parts of {sorted(NOMINAL_S)}")
        total = sum(weights.values())
        self.weights = {part: w / total for part, w in weights.items()}
        rng = np.random.default_rng(0)
        self._small = np.ones(44)
        self._left = rng.normal(size=(32, 3072))
        self._right = rng.normal(size=(3072, 32))
        self._large = rng.normal(size=1_000_000)  # 8 MB: beyond the caches
        self._recent: Deque[float] = deque(maxlen=WINDOW)

    def _interpreter(self) -> None:
        vector, table = self._small, {}
        for i in range(400):
            vector = vector * 1.0001 + 0.5
            table[i % 17] = float(vector.sum())
            index = np.arange(i % 7 + 3)
            vector[index] = vector[index] - 0.1

    def _blas(self) -> None:
        for _ in range(3):
            (self._left.T @ (self._left @ self._right)).sum()

    def _memory(self) -> None:
        (self._large * 1.5 + 0.25).sum()

    def slowness(self) -> float:
        """Current slowness (1.0 = the reference host's usual speed).

        The median of the last :data:`WINDOW` kernel timings: a single
        timing can be hit by a burst that the neighbouring round never
        sees, while the slow stretches this corrects for last far longer
        than the window.
        """
        total = 0.0
        for part, weight in self.weights.items():
            started = time.perf_counter()
            getattr(self, "_" + part)()
            total += weight * (time.perf_counter() - started) / NOMINAL_S[part]
        self._recent.append(total)
        return statistics.median(self._recent)
