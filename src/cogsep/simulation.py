"""Seeded, chunked, stratified Monte Carlo engine for the cognitive link.

Draw contract v4 (``DRAW_CONTRACT``). A channel use falls in one of four
(true state, sensing decision) cells, whose probabilities follow exactly from
(P_d, P_f, prior). Instead of sampling each use's cell, an estimate gives
every cell a fixed share of its channel uses (``_cell_uses``): of the first m
uses, round(m * prior_busy) are busy, and the busy and idle uses are split by
round(busy * P_d) and round(idle * P_f) detected/false-alarm decisions. Every
cell total stays within one use of N * pi_c, and a chunk's cell counts follow
from its start and stop offsets alone.

A chunk lays out only the uses that transmit, cell by cell; OSA uses with a
busy decision are counted as skipped and never drawn. Over those trials it
draws, in this order, the gain to the primary (peak policy only), the
in-phase and the quadrature symbol index, the channel power |h|^2 ~ Exp(1)
and the in-phase and quadrature background noise; then, for each truly busy
cell in turn, an interference sample from the *unconvolved* mixture, so
simulated physics never reuses the analytic convolution identity. The chunk
works in the detector's derotated frame: noise and interference are
circularly symmetric, so the derotated sample y h*/|h| has exactly the law
of |h| s + w, and the phase of h is never drawn.

Each thread keeps one workspace of chunk buffers (``_Workspace``), grown to
the largest chunk it has run, and a chunk draws and computes its large
arrays into slices of it. Arrays freed after every chunk went back to the
operating system and were faulted in again by the next chunk, about 720
minor page faults per 65 536-use chunk; reusing them changes no draw. The
workspace is per thread so that concurrent chunks never share a buffer.

Randomness is counter-based: chunk i of sweep point k draws from an SFC64
stream keyed by ``SeedSequence(master_seed, spawn_key=(k, i))``, so results
depend only on (master_seed, point, chunk_size), never on scheduling or
worker count, and no two (seed, point) pairs share a stream.
"""

import math
import threading
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .analytic import Scenario, Scheme, peak_power_policy
from .detection import _axis_index
from .modulation import ConstellationSpec
from .sensing import Occupancy, SensingModel

__all__ = [
    "DRAW_CONTRACT",
    "CELLS",
    "MonteCarloConfig",
    "SepEstimate",
    "InsufficientDataError",
    "monte_carlo_pool",
    "start_monte_carlo",
    "run_monte_carlo",
]

# Version of the chunk draw contract; bump it whenever a seed's counts change.
DRAW_CONTRACT = 4

IDLE, BUSY = Occupancy.IDLE, Occupancy.BUSY
# (true state, sensing decision) of each cell, in the order a chunk lays out
# and draws them.
CELLS = ((IDLE, IDLE), (IDLE, BUSY), (BUSY, BUSY), (BUSY, IDLE))

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


class InsufficientDataError(RuntimeError):
    """No non-skipped trials were available to estimate the error rate."""


@dataclass(frozen=True)
class MonteCarloConfig:
    """Trials and stream of one estimate.

    ``point`` selects the estimate's streams under ``master_seed``: a sweep
    gives each of its points its own index.
    """

    trials: int
    master_seed: int
    chunk_size: int = 65536
    point: int = 0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.point < 0:
            raise ValueError(f"point must be >= 0, got {self.point}")


@dataclass(frozen=True)
class SepEstimate:
    """Empirical SEP with a Wilson 95% confidence half-width.

    ``trials`` counts only trials where transmission occurred; OSA trials
    suppressed by a busy sensing decision appear in ``skipped``.

    The trials are allocated to the (state, decision) cells within one trial
    of proportionally, so ``sep = errors / trials`` is the proportional
    stratified estimator. Its variance is at most the binomial
    ``sep * (1 - sep) / trials`` that the Wilson width assumes, so the
    interval is conservative.
    """

    errors: int
    trials: int
    sep: float
    ci95_half_width: float
    skipped: int = 0

    @property
    def skip_fraction(self) -> float:
        total = self.trials + self.skipped
        return self.skipped / total if total else 0.0


def _wilson_half_width(errors: int, trials: int) -> float:
    z2 = _Z95 * _Z95
    p = errors / trials
    half = _Z95 * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    return half / (1.0 + z2 / trials)


def _chunk_rng(master_seed: int, point: int, chunk_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(point, chunk_index))
    return np.random.Generator(np.random.SFC64(seq))


def _round(x: float) -> int:
    return math.floor(x + 0.5)


def _cell_uses(sensing: SensingModel, m: int) -> np.ndarray:
    """Channel uses of each cell in ``CELLS`` among an estimate's first ``m``.

    Each count is nondecreasing in ``m`` and within one use of m * pi_c.
    """
    busy = _round(m * sensing.prior_busy)
    idle = m - busy
    false_alarms = _round(idle * sensing.p_false_alarm)
    detections = _round(busy * sensing.p_detect)
    return np.array([idle - false_alarms, false_alarms, detections, busy - detections])


class _Workspace(threading.local):
    """One thread's chunk buffers, grown to the largest chunk it has run.

    A chunk slices them to its own size and writes every slice before
    reading it, so nothing one chunk leaves behind reaches the next.
    """

    def __init__(self) -> None:
        self._allocate(0)

    def reserve(self, n: int) -> "_Workspace":
        if n > len(self.amp):
            self._allocate(n)
        return self

    def _allocate(self, n: int) -> None:
        self.amp = np.empty(n)
        # flat, so that a chunk's (2, n) blocks are contiguous, as the
        # Generator's out= requires
        self.noise = np.empty(2 * n)
        self.spare = np.empty(2 * n)
        self.wrong = np.empty(2 * n, dtype=bool)


_workspace = _Workspace()


def _simulate_chunk(
    scenario: Scenario, rng: np.random.Generator, drawn: np.ndarray
) -> np.ndarray:
    """Simulate ``drawn[c]`` transmissions in each cell of ``CELLS``; return per-cell errors.

    Draw order is part of the reproducibility contract: [gain to the primary
    under the peak policy], the in-phase and then the quadrature symbol
    index (``integers(0, m, n)`` in the narrowest unsigned dtype that holds
    m - 1), |h|^2 as standard exponentials, and the noise as a (2, n) block
    of in-phase and quadrature standard normals, all over every trial laid
    out cell by cell; then, for each truly busy cell with trials, in
    ``CELLS`` order, one ``GaussianMixture._add_sample`` over that cell.

    ``_add_sample`` lays each mixture component's draws out as one block, so
    it runs per cell: within a cell every other draw is iid over the trials
    and independent of the interference, so the block order leaves the
    cell's error count with the law of iid interference. One draw over both
    busy cells would crowd a component into one cell, whose power differs
    from the other's under SSS.

    The noise and the interference are circularly symmetric, so the
    detector's derotated sample y h*/|h| has exactly the law of |h| s + w:
    each axis is simulated as that real value, and the phase of h is never
    drawn.
    """
    n = int(drawn.sum())
    cells = [slice(stop - k, stop) for k, stop in zip(drawn, np.cumsum(drawn))]
    ws = _workspace.reserve(n)
    amp = ws.amp[:n]
    w = ws.noise[:2 * n].reshape(2, n)
    # inv and y are free until detection: the gain draw and the mixture's
    # normal blocks use their storage first
    spare = ws.spare[:2 * n]
    inv, y = spare.reshape(2, n)
    wrong = ws.wrong[:2 * n].reshape(2, n)

    peak = scenario.power_policy == "peak_interference"
    if peak:
        # the gain to the primary receiver sets each trial's power
        power = peak_power_policy(scenario.constraints, rng.standard_exponential(out=y))

    mi, mq = scenario.spec_idle.m_inphase, scenario.spec_idle.m_quadrature
    n_true, q_true = (rng.integers(0, m, n, dtype=np.min_scalar_type(m - 1)) for m in (mi, mq))
    rng.standard_exponential(out=amp)  # |h|^2 of a unit-mean Rayleigh channel
    deep = None if amp.all() else amp == 0.0
    if peak:
        amp *= power
        del power
    else:
        # one level per cell; OSA draws no busy-decision trial, so its busy
        # power is never used
        p_busy = scenario.spec_busy.power if scenario.scheme is Scheme.SSS else 0.0
        for cell, (_, decision) in zip(cells, CELLS):
            amp[cell] *= scenario.spec_idle.power if decision == IDLE else p_busy
    np.sqrt(amp, out=amp)  # |h| sqrt(P)
    rng.standard_normal(out=w)
    w *= math.sqrt(scenario.noise_variance)
    for cell, (state, _) in zip(cells, CELLS):
        if state == BUSY and cell.stop > cell.start:
            scenario.interference._add_sample(rng, w[0, cell], w[1, cell], spare)

    # received value on each axis, |h| sqrt(P) level + w over unit-power
    # levels, scaled for the detector by one reciprocal 1/(|h| d) per trial
    d = ConstellationSpec(mi, mq, 1.0).min_distance()
    np.multiply(amp, d, out=inv)
    # a deep fade makes inv infinite; its decision is replaced below
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(1.0, inv, out=inv)
        for axis, (m, true) in enumerate(((mi, n_true), (mq, q_true))):
            # the level (2 true + 1 - m) d/2, as ConstellationSpec computes
            # it, without np.take's intp copy of a narrow index
            np.multiply(true, 2.0, out=y)
            y += 1 - m
            y *= d / 2.0
            y *= amp
            y += w[axis]
            y *= inv
            np.not_equal(_axis_index(y, m), true, out=wrong[axis])
    error = np.logical_or(wrong[0], wrong[1], out=wrong[0])
    if deep is not None:
        # deep fade, |h|^2 drawn as exactly 0.0: deterministic index-0 decision
        error[deep] = (n_true[deep] != 0) | (q_true[deep] != 0)

    return np.array([np.count_nonzero(error[cell]) for cell in cells])


def _chunk_bounds(config: MonteCarloConfig) -> list[tuple[int, int]]:
    """(start, stop) channel-use offsets of each chunk of an estimate."""
    return [(start, min(start + config.chunk_size, config.trials))
            for start in range(0, config.trials, config.chunk_size)]


def _chunk_counts(task) -> np.ndarray:
    """Per-cell (errors, transmitted trials) of one chunk task, shape (2, 4)."""
    scenario, master_seed, point, chunk_index, start, stop = task
    uses = _cell_uses(scenario.sensing, stop) - _cell_uses(scenario.sensing, start)
    # OSA stays silent on a busy decision
    transmits = [scenario.scheme is Scheme.SSS or d == IDLE for _, d in CELLS]
    drawn = np.where(transmits, uses, 0)
    rng = _chunk_rng(master_seed, point, chunk_index)
    return np.stack([_simulate_chunk(scenario, rng, drawn), drawn])


def _estimate(counts: list[np.ndarray], trials: int) -> SepEstimate:
    """Reduce per-chunk cell counts, in chunk order, to an estimate."""
    total = sum(counts)
    errors, transmitted = int(total[0].sum()), int(total[1].sum())
    if transmitted == 0:
        raise InsufficientDataError(
            "all trials were skipped; cannot estimate a conditional error rate")
    return SepEstimate(
        errors=errors,
        trials=transmitted,
        sep=errors / transmitted,
        ci95_half_width=_wilson_half_width(errors, transmitted),
        skipped=trials - transmitted,
    )


def monte_carlo_pool(
    workers: int, configs: list[MonteCarloConfig]
) -> ProcessPoolExecutor | None:
    """A pool for the chunks of every estimate in ``configs``, or None if one process suffices.

    The pool has ``min(workers, total chunks)`` processes: under the ``fork``
    start method all of them start at once. It uses the platform's default
    start method; under ``spawn`` each worker would import cogsep and numpy
    again before its first chunk.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    chunks = sum(len(_chunk_bounds(config)) for config in configs)
    if workers == 1 or chunks < 2:
        return None
    return ProcessPoolExecutor(max_workers=min(workers, chunks))


def start_monte_carlo(
    scenario: Scenario, config: MonteCarloConfig, pool: ProcessPoolExecutor | None = None
) -> Callable[[], SepEstimate]:
    """Start the chunks of one estimate; return the function that finishes it.

    With ``pool`` the chunks run in its workers while the caller goes on;
    without one they run here, before this returns. The returned function
    reduces the per-chunk counts in chunk order, so the estimate does not
    depend on where the chunks ran, and raises InsufficientDataError when
    every trial was skipped.
    """
    tasks = [(scenario, config.master_seed, config.point, i, start, stop)
             for i, (start, stop) in enumerate(_chunk_bounds(config))]
    if pool is None:
        counts = [_chunk_counts(task) for task in tasks]
        return lambda: _estimate(counts, config.trials)
    futures = [pool.submit(_chunk_counts, task) for task in tasks]
    return lambda: _estimate([future.result() for future in futures], config.trials)


def run_monte_carlo(
    scenario: Scenario, config: MonteCarloConfig, workers: int = 1
) -> SepEstimate:
    """Estimate the SEP over ``config.trials`` channel uses.

    The estimate conditions on transmission having occurred (OSA trials with
    a busy decision are skipped, not counted as successes). Deterministic for
    a fixed (master_seed, point, chunk_size) regardless of ``workers``.
    """
    pool = monte_carlo_pool(workers, [config])
    with pool or nullcontext():
        return start_monte_carlo(scenario, config, pool)()
