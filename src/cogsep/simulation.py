"""Seeded, chunked, stratified Monte Carlo engine for the cognitive link.

Draw contract v3 (``DRAW_CONTRACT``). A channel use falls in one of four
(true state, sensing decision) cells, whose probabilities follow exactly from
(P_d, P_f, prior). Instead of sampling each use's cell, an estimate gives
every cell a fixed share of its channel uses (``_cell_uses``): of the first m
uses, round(m * prior_busy) are busy, and the busy and idle uses are split by
round(busy * P_d) and round(idle * P_f) detected/false-alarm decisions. Every
cell total stays within one use of N * pi_c, and a chunk's cell counts follow
from its start and stop offsets alone.

A chunk lays out only the uses that transmit, cell by cell; OSA uses with a
busy decision are counted as skipped and never drawn. Over those trials it
draws, in this order, the gain to the primary (peak policy only), a uniform
symbol, the channel power |h|^2 ~ Exp(1) and the in-phase and quadrature
background noise; then an interference sample from the *unconvolved*
mixture for the truly busy slice only, so simulated physics never reuses
the analytic convolution identity. The chunk works in the detector's
derotated frame: noise and interference are circularly symmetric, so the
derotated sample y h*/|h| has exactly the law of |h| s + w, and the phase
of h is never drawn.

Randomness is counter-based: chunk i of sweep point k draws from a Philox
stream keyed by ``SeedSequence(master_seed, spawn_key=(k, i))``, so results
depend only on (master_seed, point, chunk_size), never on scheduling or
worker count, and no two (seed, point) pairs share a stream.
"""

import math
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .analytic import Scenario, Scheme
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
DRAW_CONTRACT = 3

IDLE, BUSY = Occupancy.IDLE, Occupancy.BUSY
# (true state, sensing decision) of each cell, in layout order: the truly
# busy cells come last, so their trials form one slice of a chunk.
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
    return np.random.Generator(np.random.Philox(seq))


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


def _simulate_chunk(
    scenario: Scenario, rng: np.random.Generator, drawn: np.ndarray
) -> np.ndarray:
    """Simulate ``drawn[c]`` transmissions in each cell of ``CELLS``; return per-cell errors.

    Draw order is part of the reproducibility contract: [gain to the primary
    under the peak policy], symbol index, |h|^2 as standard exponentials, and
    the noise as a (2, n) block of in-phase and quadrature standard normals,
    all over every trial laid out cell by cell; then interference over the
    truly busy slice. The noise and the interference are circularly
    symmetric, so the detector's derotated sample y h*/|h| has exactly the
    law of |h| s + w: each axis is simulated as that real value, and the
    phase of h is never drawn.
    """
    n = int(drawn.sum())
    n_idle = int(drawn[0] + drawn[1])

    # Arrays are updated in place and dropped as soon as they are used: each
    # one is 512 KB in a 65 536-use chunk, and the chunk's transient memory
    # sets the process's peak RSS.
    if scenario.power_policy == "peak_interference":
        c = scenario.constraints
        power = rng.exponential(1.0, n)  # gain to the primary receiver
        with np.errstate(divide="ignore"):
            np.divide(c.peak_interference, power, out=power)
        np.minimum(power, c.peak_power, out=power)
    else:
        # OSA draws no busy-decision trial, so its busy power is never used
        p_busy = scenario.spec_busy.power if scenario.scheme is Scheme.SSS else 0.0
        p_idle = scenario.spec_idle.power
        power = np.repeat([p_idle if d == IDLE else p_busy for _, d in CELLS], drawn)

    spec = scenario.spec_idle
    mi, mq = spec.m_inphase, spec.m_quadrature
    sym = rng.integers(0, spec.size, n)
    amp = rng.standard_exponential(n)  # |h|^2 of a unit-mean Rayleigh channel
    deep = None if amp.all() else amp == 0.0
    amp *= power
    del power
    np.sqrt(amp, out=amp)  # |h| sqrt(P)
    w = rng.standard_normal((2, n))
    w *= math.sqrt(scenario.noise_variance)
    if n > n_idle:
        interference = scenario.interference.sample(rng, n - n_idle)
        w[0, n_idle:] += interference.real
        w[1, n_idle:] += interference.imag
        del interference

    q_true = sym // mi
    n_true = sym  # sym % mi, computed in place; % costs several times more
    n_true -= q_true * mi

    # received value on each axis, |h| sqrt(P) level + w over unit-power
    # levels, scaled for the detector by one reciprocal 1/(|h| d) per trial
    unit = ConstellationSpec(mi, mq, 1.0)
    inv = amp * unit.min_distance()
    error = np.zeros(n, dtype=bool)
    # a deep fade makes inv infinite; its decision is replaced below
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(1.0, inv, out=inv)
        for axis, levels, true in ((0, unit.inphase_levels(), n_true),
                                   (1, unit.quadrature_levels(), q_true)):
            y = levels[true]
            y *= amp
            y += w[axis]
            y *= inv
            error |= _axis_index(y, len(levels)) != true
    if deep is not None:
        # deep fade, |h|^2 drawn as exactly 0.0: deterministic index-0 decision
        error[deep] = (n_true[deep] != 0) | (q_true[deep] != 0)

    stops = np.cumsum(drawn)
    return np.array([np.count_nonzero(error[stop - k:stop]) for k, stop in zip(drawn, stops)])


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
    start method; under ``spawn`` each worker would import numpy and scipy
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
