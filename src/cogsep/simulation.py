"""Seeded, chunked Monte Carlo engine for the cognitive link.

Each trial draws the true channel occupancy and the sensing decision, then
(if transmission is allowed) a uniform symbol, a unit-mean Rayleigh channel,
background noise, and, on truly busy channels, an interference sample from
the *unconvolved* mixture added to an independent noise draw, so simulated
physics never reuses the analytic convolution identity.

Randomness is counter-based: chunk i draws from a Philox stream keyed by
(master_seed, i), so results depend only on (master_seed, chunk_size) and
never on scheduling or worker count.
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

__all__ = [
    "MonteCarloConfig",
    "SepEstimate",
    "InsufficientDataError",
    "monte_carlo_pool",
    "start_monte_carlo",
    "run_monte_carlo",
]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


class InsufficientDataError(RuntimeError):
    """No non-skipped trials were available to estimate the error rate."""


@dataclass(frozen=True)
class MonteCarloConfig:
    trials: int
    master_seed: int
    chunk_size: int = 65536

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")


@dataclass(frozen=True)
class SepEstimate:
    """Empirical SEP with a Wilson 95% confidence half-width.

    ``trials`` counts only trials where transmission occurred; OSA trials
    suppressed by a busy sensing decision appear in ``skipped``.
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


def _chunk_rng(master_seed: int, chunk_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(chunk_index,))
    return np.random.Generator(np.random.Philox(seq))


def _simulate_chunk(
    scenario: Scenario, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Run n trials; return (symbol error, transmission occurred) masks.

    Draw order is part of the reproducibility contract: occupancy, sensing
    decision, [gain under the peak policy], symbol index, fading, noise,
    interference.
    """
    s = scenario.sensing
    busy = rng.random(n) < s.prior_busy
    p_busy_decision = np.where(busy, s.p_detect, s.p_false_alarm)
    decided_busy = rng.random(n) < p_busy_decision

    peak_mode = scenario.power_policy == "peak_interference"
    if peak_mode:
        c = scenario.constraints
        gain = rng.exponential(1.0, n)
        with np.errstate(divide="ignore"):
            power = np.minimum(c.peak_power, c.peak_interference / gain)
    elif scenario.scheme is Scheme.SSS:
        power = np.where(decided_busy, scenario.spec_busy.power,
                         scenario.spec_idle.power)
    else:
        power = np.full(n, scenario.spec_idle.power)

    transmit = ~decided_busy if scenario.scheme is Scheme.OSA else np.ones(n, bool)

    spec = scenario.spec_idle
    mi, mq = spec.m_inphase, spec.m_quadrature
    sym = rng.integers(0, spec.size, n)
    n_true = sym % mi
    q_true = sym // mi

    h = math.sqrt(0.5) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    noise_std = math.sqrt(scenario.noise_variance)
    disturbance = noise_std * (rng.standard_normal(n) + 1j * rng.standard_normal(n))

    w = scenario.interference.sample(rng, n)
    disturbance = disturbance + np.where(busy, w, 0.0)

    # unit-power amplitudes scaled per trial by sqrt(power)
    unit = ConstellationSpec(mi, mq, 1.0)
    d_unit = unit.min_distance()
    amp_n = unit.inphase_levels()
    amp_q = unit.quadrature_levels()
    scale = np.sqrt(power)
    sent = (amp_n[n_true] + 1j * amp_q[q_true]) * scale

    y = h * sent + disturbance
    mag = np.abs(h)
    ok = mag > 0
    safe_mag = np.where(ok, mag, 1.0)
    derot = y * np.conj(h) / safe_mag

    d_trial = d_unit * scale
    n_det = _axis_index(derot.real, safe_mag, mi, d_trial)
    q_det = _axis_index(derot.imag, safe_mag, mq, d_trial)
    # deep fade (measure zero): deterministic index-0 decision
    n_det = np.where(ok, n_det, 0)
    q_det = np.where(ok, q_det, 0)

    error = (n_det != n_true) | (q_det != q_true)
    return error & transmit, transmit


def _chunk_sizes(config: MonteCarloConfig) -> list[int]:
    sizes = [config.chunk_size] * (config.trials // config.chunk_size)
    rem = config.trials % config.chunk_size
    if rem:
        sizes.append(rem)
    return sizes


def _chunk_counts(task) -> tuple[int, int]:
    """(errors, transmitted) of one chunk task."""
    scenario, master_seed, chunk_index, size = task
    error, transmit = _simulate_chunk(scenario, _chunk_rng(master_seed, chunk_index), size)
    return int(error.sum()), int(transmit.sum())


def _estimate(counts: list[tuple[int, int]], trials: int) -> SepEstimate:
    """Reduce per-chunk (errors, transmitted) counts, in chunk order, to an estimate."""
    errors = sum(c[0] for c in counts)
    transmitted = sum(c[1] for c in counts)
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
    chunks = sum(len(_chunk_sizes(config)) for config in configs)
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
    tasks = [(scenario, config.master_seed, i, size)
             for i, size in enumerate(_chunk_sizes(config))]
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
    a fixed (master_seed, chunk_size) regardless of ``workers``.
    """
    pool = monte_carlo_pool(workers, [config])
    with pool or nullcontext():
        return start_monte_carlo(scenario, config, pool)()
