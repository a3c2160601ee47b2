"""Speed probe: a fixed numpy kernel, independent of the package, that the
benchmark times between operations to follow the machine's current speed.

On the shared 2-vCPU box the benchmark was built on, the same work ran up to
1.7 times slower for stretches of ten seconds to minutes, on either vCPU.
Dividing each operation's wall time by the probe times measured around it,
and multiplying by REFERENCE_S, gives the operation's time at the box's
reference speed.  In a 170-second test the coefficient of variation of
per-cycle `dense-files` times fell from 19% unscaled to 5% scaled.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median probe time on the reference box; scaled times are in its units.
REFERENCE_S = 2.2e-3


class SpeedProbe:
    """Small Hermitian eigensolves, elementwise array work and a Python
    sort: the same kinds of work as the package's operations."""

    def __init__(self):
        # Bound now, so that a tracer installed later does not count these.
        self._eigvalsh = np.linalg.eigvalsh
        rng = np.random.default_rng(0)
        self._mats = []
        for d in (8, 16, 24, 32, 40) * 4:
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            self._mats.append(g + g.conj().T)

    def __call__(self) -> float:
        """Seconds the kernel takes now."""
        start = time.perf_counter()
        for a in self._mats:
            self._eigvalsh(a)
            float(np.max(np.abs(a - (a + a.conj().T) / 2.0)))
            sorted(range(200), key=lambda x: -x)
        return time.perf_counter() - start


def at_reference_speed(walls: list[float], probes: list[float]) -> list[float]:
    """Scale each wall time walls[i], taken between probes[i] and
    probes[i + 1], to the reference speed.  Each probe time is first
    replaced by the median of it and two neighbours on either side, which
    removes the probe's own jitter but keeps the steps where the machine's
    speed changes."""
    smooth = [statistics.median(probes[max(0, i - 2) : i + 3]) for i in range(len(probes))]
    return [2.0 * REFERENCE_S * w / (smooth[i] + smooth[i + 1]) for i, w in enumerate(walls)]
