"""Calibration server: times fixed work that does not touch cogsep.

``run.py`` starts this once per run and sends lines ``UNIT SECONDS``; for
each it runs the named unit at least three times and for at least SECONDS,
and answers with the mean seconds per unit. It runs in its own process so
that its arrays never count in the benchmark process's peak memory. It
exits when its input closes.
"""

import math
import sys
import time

import numpy as np
from scipy.integrate import quad
from scipy.special import erfc

MIN_UNITS = 3


def interpreter_unit() -> None:
    """Work like interpreter-bound code: scalar numpy and scipy calls driven
    from Python, as in imports, closed forms and quadrature, plus some vector numpy."""
    rng = np.random.Generator(np.random.Philox(7))
    z = rng.standard_normal(1 << 15) + 1j * rng.standard_normal(1 << 15)
    np.abs(z * np.conj(z) + 0.5).sum()
    grid = np.linspace(0.1, 4.0, 4)
    for k in range(8):
        quad(lambda x: math.exp(-x) * float(np.dot(grid, erfc(grid * x))), 0.0, np.inf)


def vector_unit() -> None:
    """Work like a Monte Carlo chunk: Philox draws, fading, derotation."""
    rng = np.random.Generator(np.random.Philox(7))
    n = 1 << 16
    h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = 0.7 * h + rng.standard_normal(n) + 1j * rng.standard_normal(n)
    derot = y * np.conj(h) / np.abs(h)
    np.count_nonzero(np.floor(derot.real) > 0)


UNITS = {"interpreter": interpreter_unit, "vector": vector_unit}


def measure(unit, duration: float) -> float:
    started = time.perf_counter()
    count = 0
    while count < MIN_UNITS or time.perf_counter() - started < duration:
        unit()
        count += 1
    return (time.perf_counter() - started) / count


if __name__ == "__main__":
    for line in sys.stdin:
        name, duration = line.split()
        print(repr(measure(UNITS[name], float(duration))), flush=True)
