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
of |h| s + w, and the phase of h is never drawn. Nor is that sample built:
by the rule of ``detect_threshold``, a trial errs where an axis's noise
crosses half the faded minimum distance toward a level that exists.

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

Importing this module loads neither ``numpy.random`` nor
``concurrent.futures``, since no closed-form run uses them. The first
estimate's first chunk loads ``numpy.random``. ``run_estimates`` runs a list
of estimates, a sweep's, in one call, and is the one place that makes a
pool. The pool runs threads, and making one loads ``concurrent.futures``;
nothing loads ``multiprocessing``. Threads suffice because the Generator's
fills and a chunk's large ufuncs release the GIL. A pool task is a range of
one estimate's chunks and returns their summed cell counts, exact integers
in any grouping.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .analytic import Scenario, Scheme, peak_power_policy
from .mathcore import _check_integer
from .modulation import ConstellationSpec
from .sensing import Occupancy, SensingModel

__all__ = [
    "DRAW_CONTRACT",
    "CELLS",
    "MonteCarloConfig",
    "SepEstimate",
    "InsufficientDataError",
    "run_estimates",
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


# Chunks per estimate: a one-use chunk takes ~110 us (2-core x86-64 VM), so
# even 2**20 of them take about two minutes.
MAX_CHUNKS = 2 ** 20


@dataclass(frozen=True)
class MonteCarloConfig:
    """Trials and stream of one estimate.

    ``point`` selects the estimate's streams under ``master_seed``: a sweep
    gives each of its points its own index. ``trials`` may span at most
    MAX_CHUNKS chunks of ``chunk_size`` uses.
    """

    trials: int
    master_seed: int
    chunk_size: int = 65536
    point: int = 0

    def __post_init__(self) -> None:
        for name, minimum in (("trials", 1), ("master_seed", 0), ("chunk_size", 1), ("point", 0)):
            object.__setattr__(self, name, _check_integer(name, getattr(self, name), minimum))
        if self.chunks > MAX_CHUNKS:
            raise ValueError(f"trials / chunk_size needs {self.chunks} chunks, more than "
                             f"the limit of {MAX_CHUNKS}; raise chunk_size")

    @property
    def chunks(self) -> int:
        return -(-self.trials // self.chunk_size)  # ceil


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
        if n > len(self.half):
            self._allocate(n)
        return self

    def _allocate(self, n: int) -> None:
        self.half = np.empty(n)
        # flat, so that a chunk's (2, n) blocks are contiguous, as the
        # Generator's out= requires; only the mixture's (2, c) blocks of a
        # busy cell's c trials touch ``spare``
        self.noise = np.empty(2 * n)
        self.spare = np.empty(2 * n)
        self.flags = np.empty(3 * n, dtype=bool)


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
    detector's derotated sample y h*/|h| has exactly the law of |h| s + w,
    and the phase of h is never drawn. Each axis is decided as
    ``detect_threshold`` decides it, from its noise w and half = |h| sqrt(P) d/2:
    it errs where w > half below the top level or w <= -half above the
    bottom one, so a sample on a threshold goes to the smaller index.
    """
    n = int(drawn.sum())
    cells = [slice(stop - k, stop) for k, stop in zip(drawn, np.cumsum(drawn))]
    ws = _workspace.reserve(n)
    half = ws.half[:n]
    w = ws.noise[:2 * n].reshape(2, n)
    error, up, down = ws.flags[:3 * n].reshape(3, n)

    peak = scenario.power_policy == "peak_interference"
    if peak:
        # the gain to the primary receiver sets each trial's power, written
        # over the gain; both live in the noise buffer's first row, which
        # nothing reads before the noise is drawn into it
        gain = rng.standard_exponential(out=w[0])
        power = peak_power_policy(scenario.constraints, gain, out=gain)

    mi, mq = scenario.spec_idle.m_inphase, scenario.spec_idle.m_quadrature
    n_true, q_true = (rng.integers(0, m, n, dtype=np.min_scalar_type(m - 1)) for m in (mi, mq))
    rng.standard_exponential(out=half)  # |h|^2 of a unit-mean Rayleigh channel
    deep = None if half.all() else half == 0.0
    quarter = ConstellationSpec(mi, mq, 1.0).min_distance() ** 2 / 4.0  # (d/2)^2 at P = 1
    if peak:
        half *= power
        half *= quarter
        del power
    else:
        # one level per cell; OSA draws no busy-decision trial, so its busy
        # power is never used
        p_busy = scenario.spec_busy.power if scenario.scheme is Scheme.SSS else 0.0
        for cell, (_, decision) in zip(cells, CELLS):
            half[cell] *= (scenario.spec_idle.power if decision == IDLE else p_busy) * quarter
    np.sqrt(half, out=half)  # |h| sqrt(P) d/2, half the faded minimum distance
    rng.standard_normal(out=w)
    w *= math.sqrt(scenario.noise_variance)
    for cell, (state, _) in zip(cells, CELLS):
        if state == BUSY and cell.stop > cell.start:
            scenario.interference._add_sample(rng, w[0, cell], w[1, cell], ws.spare)

    # a single level is never wrong
    axes = [(noise, m, true) for noise, m, true in ((w[0], mi, n_true), (w[1], mq, q_true))
            if m > 1]
    error.fill(False)
    for noise, m, true in axes:
        np.greater(noise, half, out=up)
        up &= np.not_equal(true, m - 1, out=down)  # below the top level
        error |= up
    np.negative(half, out=half)  # the lower thresholds, in place
    for noise, m, true in axes:
        np.less_equal(noise, half, out=down)
        down &= np.not_equal(true, 0, out=up)  # above the bottom level
        error |= down
    if deep is not None:
        # deep fade, |h|^2 drawn as exactly 0.0: deterministic index-0 decision
        error[deep] = (n_true[deep] != 0) | (q_true[deep] != 0)

    return np.array([np.count_nonzero(error[cell]) for cell in cells])


def _chunk_counts(scenario: Scenario, config: MonteCarloConfig, index: int) -> np.ndarray:
    """Per-cell (errors, transmitted trials) of chunk ``index`` of an estimate, shape (2, 4)."""
    start = index * config.chunk_size
    stop = min(start + config.chunk_size, config.trials)
    uses = _cell_uses(scenario.sensing, stop) - _cell_uses(scenario.sensing, start)
    # OSA stays silent on a busy decision
    transmits = [scenario.scheme is Scheme.SSS or d == IDLE for _, d in CELLS]
    drawn = np.where(transmits, uses, 0)
    rng = _chunk_rng(config.master_seed, config.point, index)
    return np.stack([_simulate_chunk(scenario, rng, drawn), drawn])


def _run_counts(scenario: Scenario, config: MonteCarloConfig, chunks: range) -> np.ndarray:
    """Summed ``_chunk_counts`` of a nonempty range of chunks: the unit a pool runs."""
    return sum(_chunk_counts(scenario, config, index) for index in chunks)


def _estimate(counts: np.ndarray, trials: int) -> SepEstimate | InsufficientDataError:
    """Reduce an estimate's summed cell counts to an estimate, or to the
    error of an estimate whose every trial was skipped."""
    errors, transmitted = int(counts[0].sum()), int(counts[1].sum())
    if transmitted == 0:
        return InsufficientDataError(
            "all trials were skipped; cannot estimate a conditional error rate")
    return SepEstimate(
        errors=errors,
        trials=transmitted,
        sep=errors / transmitted,
        ci95_half_width=_wilson_half_width(errors, transmitted),
        skipped=trials - transmitted,
    )


def _runs(chunks: range, parts: int) -> list[range]:
    """Cut one estimate's chunk indices into min(its chunks, ``parts``) pool
    tasks: ranges of contiguous chunks whose sizes differ by at most one,
    the longer first. Fewer, larger tasks keep each worker busy without
    waiting on the executor between chunks."""
    parts = min(len(chunks), parts)
    size, longer = divmod(len(chunks), parts)
    starts = [part * size + min(part, longer) for part in range(parts + 1)]
    return [chunks[start:stop] for start, stop in zip(starts, starts[1:])]


def run_estimates(
    points: list[tuple[Scenario, MonteCarloConfig]], workers: int = 1
) -> list[SepEstimate | InsufficientDataError]:
    """Estimate the SEP of each (Scenario, MonteCarloConfig) pair, in order.

    An estimate whose every trial was skipped comes back as its
    InsufficientDataError, in its place; any other error propagates. An
    estimate sums the integer cell counts of its chunks, and integer sums
    are exact in any grouping, so it does not depend on ``workers``. When
    min(workers, total chunks) >= 2, the chunks run on a pool of that many
    threads in this process, shut down with its queued tasks cancelled
    before this returns or raises. Each estimate goes to it as
    ceil(threads / estimates) ranges of contiguous chunks (``_runs``), each a
    task that returns its chunks' summed counts (``_run_counts``): one task
    per estimate in a sweep, while a lone estimate still spreads over every
    thread. The tasks share the Scenarios rather than copies of them, and
    each thread runs its chunks in its own workspace.
    """
    _check_integer("workers", workers, 1)
    chunks = [range(config.chunks) for _, config in points]
    threads = min(workers, sum(map(len, chunks)))
    if threads < 2:
        return [_estimate(_run_counts(scenario, config, indices), config.trials)
                for (scenario, config), indices in zip(points, chunks)]

    from concurrent.futures import ThreadPoolExecutor

    executor = ThreadPoolExecutor(max_workers=threads)
    try:
        parts = -(-threads // len(points))  # ceil
        futures = [[executor.submit(_run_counts, scenario, config, run)
                    for run in _runs(indices, parts)]
                   for (scenario, config), indices in zip(points, chunks)]
        return [_estimate(sum(future.result() for future in runs), config.trials)
                for runs, (_, config) in zip(futures, points)]
    finally:
        executor.shutdown(cancel_futures=True)


def run_monte_carlo(
    scenario: Scenario, config: MonteCarloConfig, workers: int = 1
) -> SepEstimate:
    """Estimate the SEP over ``config.trials`` channel uses.

    The estimate conditions on transmission having occurred (OSA trials with
    a busy decision are skipped, not counted as successes); raises
    InsufficientDataError when every trial was skipped. Deterministic for
    a fixed (master_seed, point, chunk_size) regardless of ``workers``.
    """
    (estimate,) = run_estimates([(scenario, config)], workers)
    if isinstance(estimate, InsufficientDataError):
        raise estimate
    return estimate
