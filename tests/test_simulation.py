import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from cogsep import (
    ConstellationSpec,
    ConstraintSet,
    GaussianMixture,
    MonteCarloConfig,
    Scheme,
    SensingModel,
    detect_threshold,
    run_monte_carlo,
    sep_peak_interference_exact,
    sep_rayleigh,
)
from cogsep import simulation
from cogsep.analytic import _branches, _rayleigh_term
from cogsep.simulation import (
    BUSY,
    CELLS,
    DRAW_CONTRACT,
    IDLE,
    InsufficientDataError,
    _cell_uses,
    _chunk_counts,
    _chunk_rng,
    _simulate_chunk,
    run_estimates,
)

from conftest import P_4DB, make_scenario
from mp_reference import joint


class TestConfigValidation:
    def test_trials_positive(self):
        with pytest.raises(ValueError, match="^trials must be >= 1, got 0$"):
            MonteCarloConfig(trials=0, master_seed=1)

    def test_chunk_positive(self):
        with pytest.raises(ValueError, match="^chunk_size must be >= 1, got 0$"):
            MonteCarloConfig(trials=10, master_seed=1, chunk_size=0)

    def test_seed_nonnegative(self):
        with pytest.raises(ValueError, match="master_seed must be >= 0, got -1"):
            MonteCarloConfig(trials=10, master_seed=-1)
        # the first broken field in field order is the one reported
        with pytest.raises(ValueError, match="master_seed must be >= 0, got -1"):
            MonteCarloConfig(trials=10, master_seed=-1, chunk_size=0)

    def test_point_nonnegative(self):
        with pytest.raises(ValueError, match="point must be >= 0"):
            MonteCarloConfig(trials=10, master_seed=1, point=-1)

    @pytest.mark.parametrize("field", ["trials", "master_seed", "chunk_size", "point"])
    def test_counts_must_be_integers(self, field):
        fields = {"trials": 10, "master_seed": 1, "chunk_size": 4, "point": 0}
        with pytest.raises(ValueError, match=f"{field} must be an integer, got 1000000.0"):
            MonteCarloConfig(**{**fields, field: 1e6})
        assert MonteCarloConfig(**{**fields, field: np.int64(3)}).trials >= 1

    @pytest.mark.parametrize("field", ["trials", "master_seed", "chunk_size", "point"])
    def test_counts_must_not_be_bools(self, field):
        # bool is an int subclass: trials=True once ran as one trial
        fields = {"trials": 10, "master_seed": 1, "chunk_size": 4, "point": 0}
        with pytest.raises(ValueError, match=f"{field} must be an integer, got True"):
            MonteCarloConfig(**{**fields, field: True})


def _counts(scenario, trials, seed=21):
    """One chunk's per-cell (errors, transmitted) over ``trials`` channel uses."""
    return _chunk_counts(scenario, MonteCarloConfig(trials, seed), 0)


class TestRunTrial:
    """Outcomes of one chunk: per-cell (errors, transmitted trials)."""

    def test_noiseless_idle_channel_never_errs(self):
        quiet = SensingModel(1.0, 0.0, 0.0)
        scenario = make_scenario(Scheme.SSS, (2, 2), sensing=quiet,
                                 noise_variance=1e-12)
        errors, transmitted = _counts(scenario, 500)
        assert errors.sum() == 0 and transmitted.sum() == 500

    def test_osa_busy_decision_skips(self):
        always_busy = SensingModel(0.9, 1.0, 0.0)  # idle channel, certain alarm
        scenario = make_scenario(Scheme.OSA, (2, 2), sensing=always_busy)
        errors, transmitted = _counts(scenario, 200, seed=22)
        assert transmitted.sum() == 0 and errors.sum() == 0

    def test_sss_never_skips(self):
        scenario = make_scenario()
        _, transmitted = _counts(scenario, 200, seed=23)
        assert transmitted.sum() == 200


class TestDeterminism:
    def test_same_seed_same_counts(self):
        scenario = make_scenario(modulation=(8, 2), p0=1.0, p1=0.4)
        config = MonteCarloConfig(trials=150_000, master_seed=99, chunk_size=30_000)
        a = run_monte_carlo(scenario, config)
        b = run_monte_carlo(scenario, config)
        assert a == b

    def test_worker_count_does_not_change_result(self):
        scenario = make_scenario(Scheme.OSA, (2, 2), p0=1.0)
        config = MonteCarloConfig(trials=140_000, master_seed=5, chunk_size=20_000)
        serial = run_monte_carlo(scenario, config, workers=1)
        parallel = run_monte_carlo(scenario, config, workers=4)
        assert serial == parallel

    def test_pool_capped_at_chunk_count(self, pool_log):
        scenario = make_scenario(Scheme.OSA, (2, 2), p0=1.0)
        config = MonteCarloConfig(trials=2_500, master_seed=5, chunk_size=1_000)
        pooled = run_monte_carlo(scenario, config, workers=64)
        assert pool_log.sizes == [3]
        assert pooled == run_monte_carlo(scenario, config, workers=1)

    @pytest.mark.parametrize("workers,trials", [(1, 2_500), (8, 1_000)])
    def test_no_pool_for_one_worker_or_one_chunk(self, pool_log, workers, trials):
        scenario = make_scenario(Scheme.OSA, (2, 2), p0=1.0)
        config = MonteCarloConfig(trials=trials, master_seed=5, chunk_size=1_000)
        run_monte_carlo(scenario, config, workers=workers)
        assert pool_log.sizes == []

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        config = MonteCarloConfig(trials=1_000, master_seed=5)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_monte_carlo(make_scenario(), config, workers=workers)

    @pytest.mark.parametrize("workers", [2.5, 2.0, True, "2"])
    def test_workers_must_be_an_integer(self, workers):
        # 2.5 once failed inside the pool's executor, and True ran on one worker
        config = MonteCarloConfig(trials=2_000, master_seed=5, chunk_size=1_000)
        with pytest.raises(ValueError, match=f"workers must be an integer, got {workers!r}"):
            run_monte_carlo(make_scenario(), config, workers=workers)

    def test_points_have_independent_streams(self):
        # under "seed + point" keying these two were the same stream
        scenario = make_scenario(modulation=(8, 2), p0=1.0, p1=0.4)
        a = run_monte_carlo(scenario, MonteCarloConfig(trials=50_000, master_seed=7, point=1))
        b = run_monte_carlo(scenario, MonteCarloConfig(trials=50_000, master_seed=8, point=0))
        assert a.errors != b.errors
        assert _chunk_rng(7, 1, 0).integers(0, 2**62) != _chunk_rng(8, 0, 0).integers(0, 2**62)

    def test_different_seed_differs(self):
        scenario = make_scenario(modulation=(8, 2), p0=1.0, p1=0.4)
        a = run_monte_carlo(scenario, MonteCarloConfig(trials=100_000, master_seed=1))
        b = run_monte_carlo(scenario, MonteCarloConfig(trials=100_000, master_seed=2))
        assert a.errors != b.errors


class TestRunEstimates:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_skipped_estimate_is_its_error_in_place(self, workers):
        always_busy = SensingModel(0.9, 1.0, 0.0)
        points = [
            (make_scenario(Scheme.OSA, (2, 2), p0=1.0),
             MonteCarloConfig(trials=4_000, master_seed=5, chunk_size=1_000)),
            (make_scenario(Scheme.OSA, (2, 2), sensing=always_busy),
             MonteCarloConfig(trials=3_000, master_seed=5, chunk_size=1_000, point=1)),
            (make_scenario(modulation=(8, 2), p0=1.0, p1=0.4),
             MonteCarloConfig(trials=2_500, master_seed=5, chunk_size=1_000, point=2)),
        ]
        threads = set(threading.enumerate())
        first, skipped, last = run_estimates(points, workers)
        assert set(threading.enumerate()) == threads
        assert isinstance(skipped, InsufficientDataError)
        assert "all trials were skipped" in str(skipped)
        assert first == run_monte_carlo(*points[0])
        assert last == run_monte_carlo(*points[2])

    def test_no_estimates(self):
        assert run_estimates([], workers=4) == []

    def test_nothing_is_kept_per_chunk(self, monkeypatch):
        """200 000 one-use chunks run in little memory: no task and no count
        array is kept per chunk. Listing a task per chunk peaked at 50 MB."""
        counts = np.array([[0, 0, 0, 0], [1, 0, 0, 0]])
        monkeypatch.setattr(simulation, "_chunk_counts", lambda scenario, config, index: counts)
        point = (make_scenario(), MonteCarloConfig(trials=200_000, master_seed=5, chunk_size=1))
        tracemalloc.start()
        try:
            (estimate,) = run_estimates([point])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert estimate.trials == 200_000 and estimate.errors == 0
        assert peak < 1e6


class TestPoolTasks:
    """How an estimate's chunks are cut into pool tasks (in-process stand-in)."""

    @pytest.mark.parametrize("workers,runs", [
        (4, [[0], [1], [2], [3]]),
        (3, [[0, 1], [2], [3]]),
        (2, [[0, 1], [2, 3]]),
        (64, [[0], [1], [2], [3]]),
    ])
    def test_lone_estimate_spreads_over_the_threads(self, pool_log, workers, runs):
        scenario = make_scenario(Scheme.OSA, (2, 2), p0=1.0)
        config = MonteCarloConfig(trials=4_000, master_seed=5, chunk_size=1_000, point=2)
        pooled = run_monte_carlo(scenario, config, workers=workers)
        assert pool_log.tasks == [[(2, i) for i in run] for run in runs]
        assert pooled == run_monte_carlo(scenario, config, workers=1)

    @pytest.mark.parametrize("chunks,processes,estimates", [
        (7, 4, 1), (7, 4, 2), (5, 8, 3), (3, 2, 5), (1, 3, 1), (9, 9, 2)])
    def test_runs_are_contiguous_and_near_equal(self, chunks, processes, estimates):
        parts = -(-processes // estimates)  # as ``run_estimates`` asks
        runs = simulation._runs(range(chunks), parts)
        assert len(runs) == min(chunks, parts)
        assert all(isinstance(run, range) for run in runs)
        assert [index for run in runs for index in run] == list(range(chunks))
        sizes = [len(run) for run in runs]
        assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1


# Run in a fresh interpreter: what importing the engine loads, and what a
# two-thread run of ``run_estimates`` loads.
POOLED_RUN = """
import json, sys
from cogsep.simulation import MonteCarloConfig, run_estimates
from cogsep.presets import default_mixture, default_sensing
from cogsep import ConstellationSpec, ConstraintSet, Scenario, Scheme
watched = ("numpy.random", "concurrent.futures", "multiprocessing")
before = [name for name in watched if name in sys.modules]
scenario = Scenario(Scheme.OSA, ConstellationSpec(2, 2, 1.0), None, default_sensing(), 0.01,
                    default_mixture(), ConstraintSet(peak_power=2.5, avg_interference=0.1))
point = (scenario, MonteCarloConfig(trials=2_000, master_seed=5, chunk_size=1_000))
pooled = run_estimates([point], 2)
after = [name for name in watched if name in sys.modules]
print(json.dumps([before, after, pooled == run_estimates([point], 1)]))
"""


def test_pool_loads_concurrent_futures_but_never_multiprocessing():
    """The pool runs threads, so a pooled run loads ``concurrent.futures``
    but no process machinery, and gives the one-worker result; importing
    the engine loads neither it nor ``numpy.random``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", POOLED_RUN], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    before, after, same = json.loads(out.stdout.splitlines()[-1])
    assert before == []
    assert after == ["numpy.random", "concurrent.futures"]
    assert same


class TestEstimate:
    def test_accounting(self):
        scenario = make_scenario(Scheme.OSA, (2, 2), p0=1.0)
        config = MonteCarloConfig(trials=123_457, master_seed=11, chunk_size=10_000)
        estimate = run_monte_carlo(scenario, config)
        assert estimate.trials + estimate.skipped == 123_457
        assert estimate.sep == estimate.errors / estimate.trials
        # OSA skips exactly on busy decisions
        p_skip = scenario.sensing.posteriors(BUSY)[0]
        sigma = math.sqrt(p_skip * (1 - p_skip) / 123_457)
        assert abs(estimate.skip_fraction - p_skip) < 3 * sigma

    def test_wilson_half_width_scale(self):
        scenario = make_scenario(p0=1.0, p1=1.0)
        estimate = run_monte_carlo(scenario, MonteCarloConfig(trials=200_000,
                                                              master_seed=3))
        p, n = estimate.sep, estimate.trials
        classic = 1.959963984540054 * math.sqrt(p * (1 - p) / n)
        assert estimate.ci95_half_width == pytest.approx(classic, rel=0.01)

    def test_all_skipped_raises(self):
        always_busy = SensingModel(0.9, 1.0, 0.0)
        scenario = make_scenario(Scheme.OSA, (2, 2), sensing=always_busy)
        with pytest.raises(InsufficientDataError):
            run_monte_carlo(scenario, MonteCarloConfig(trials=1000, master_seed=4))


class TestAgainstClosedForms:
    @pytest.mark.parametrize("scheme,modulation", [
        (Scheme.SSS, (2, 2)), (Scheme.SSS, (8, 1)), (Scheme.OSA, (4, 1)),
    ])
    def test_three_sigma_agreement(self, scheme, modulation):
        scenario = make_scenario(scheme, modulation, p0=1.0,
                                 p1=0.3 if scheme is Scheme.SSS else None)
        estimate = run_monte_carlo(scenario, MonteCarloConfig(trials=400_000,
                                                              master_seed=31))
        p = sep_rayleigh(scenario)
        sigma = math.sqrt(p * (1 - p) / estimate.trials)
        assert abs(estimate.sep - p) <= 3 * sigma

    def test_peak_policy_three_sigma(self):
        constraints = ConstraintSet(peak_power=P_4DB, peak_interference=1.0)
        scenario = make_scenario(Scheme.SSS, (2, 2), p0=P_4DB, p1=P_4DB,
                                 constraints=constraints,
                                 power_policy="peak_interference")
        estimate = run_monte_carlo(scenario, MonteCarloConfig(trials=400_000,
                                                              master_seed=37))
        p = sep_peak_interference_exact(scenario)
        sigma = math.sqrt(p * (1 - p) / estimate.trials)
        assert abs(estimate.sep - p) <= 3 * sigma


def _contract_scenarios(modulation=None):
    """The SSS, OSA and peak-policy scenarios the draw contract is pinned on
    (2x2, 4x1 and 2x2), or the same three on one other ``modulation``."""
    return {
        "sss": make_scenario(Scheme.SSS, modulation or (2, 2), p0=1.0, p1=0.3),
        "osa": make_scenario(Scheme.OSA, modulation or (4, 1), p0=1.0),
        "peak": make_scenario(
            Scheme.SSS, modulation or (2, 2), p0=P_4DB, p1=P_4DB,
            constraints=ConstraintSet(peak_power=P_4DB, peak_interference=1.0),
            power_policy="peak_interference"),
    }


def _cell_sums(values, drawn):
    """Sum of ``values`` over each cell's slice of a chunk laid out cell by cell."""
    return [int(cell.sum()) for cell in np.split(values, np.cumsum(drawn)[:-1])]


# one chunk of the default 65 536 uses, the size the sweeps run
_FULL_CHUNK = MonteCarloConfig(trials=65_536, master_seed=2024, point=3)

# per-cell (errors, transmitted) of _chunk_counts(scenario, _FULL_CHUNK, 0)
_FULL_CHUNK_GOLDEN = {
    "sss": [[687, 123, 11980, 924], [37356, 1966, 23593, 2621]],
    "osa": [[1282, 0, 0, 1120], [37356, 0, 0, 2621]],
    "peak": [[756, 33, 7428, 834], [37356, 1966, 23593, 2621]],
}


class _DeepFades:
    """A chunk generator whose |h|^2 draws all come out as exactly 0.0."""

    def __init__(self, rng):
        self._rng = rng

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def standard_exponential(self, size=None, out=None):
        draws = self._rng.standard_exponential(size, out=out)
        draws[...] = 0.0
        return draws


class _Planted:
    """A chunk generator with planted symbol indices and noise, and |h|^2
    drawn as exactly 1.0 for every trial."""

    def __init__(self, indices, noise):
        self._indices = list(indices)  # in-phase, then quadrature
        self._noise = noise

    def integers(self, low, high, size, dtype):
        return np.asarray(self._indices.pop(0), dtype=dtype)

    def standard_exponential(self, size=None, out=None):
        out[...] = 1.0
        return out

    def standard_normal(self, size=None, out=None):
        out[...] = self._noise
        return out


def _planted_errors(modulation, power, trials):
    """The chunk's error and ``detect_threshold``'s for each planted trial
    (in-phase index, quadrature index, in-phase noise, quadrature noise) of
    an idle, noise-only channel with |h| = 1 and unit noise variance.

    ``power`` must make the minimum distance exactly 2: the levels are then
    the odd integers, and a noise of +-1 puts a sample on a threshold."""
    spec = ConstellationSpec(*modulation, power)
    assert spec.min_distance() == 2.0
    scenario = make_scenario(Scheme.SSS, modulation, p0=power, noise_variance=1.0,
                             sensing=SensingModel(0.9, 0.0, 0.0))
    engine = [int(_simulate_chunk(scenario, _Planted([[n], [q]], [[w_n], [w_q]]),
                                  np.array([1, 0, 0, 0])).sum())
              for n, q, w_n, w_q in trials]
    n, q, w_n, w_q = np.array(trials).T
    sample = (2 * n + 1 - spec.m_inphase + w_n) + 1j * (2 * q + 1 - spec.m_quadrature + w_q)
    n_det, q_det = detect_threshold(spec, sample, 1.0)
    return engine, ((n_det != n) | (q_det != q)).astype(int).tolist()


class TestDrawContract:
    def test_four_case_frequencies_and_fading_power(self, sensing):
        # every cell total is within one trial of N * pi_c, for any N, and a
        # chunk's cells are its offsets' difference, never negative
        rng = np.random.default_rng(4242)
        models = [sensing] + [SensingModel(*rng.uniform(0, 1, 3)) for _ in range(30)]
        for model in models:
            pi = np.array([float(joint(model)[cell]) for cell in CELLS])
            uses = np.array([_cell_uses(model, m) for m in range(600)])
            assert (np.abs(uses - np.outer(np.arange(600), pi)) <= 1 + 1e-9).all()
            assert (uses.sum(axis=1) == np.arange(600)).all()
            assert (np.diff(uses, axis=0) >= 0).all()
            for n in (1_000_000, 123_457):
                assert (np.abs(_cell_uses(model, n) - n * pi) <= 1 + 1e-6).all()

        # |h|^2 follows the two symbol index draws in the documented chunk order
        n = 500_000
        stream = _chunk_rng(4242, 0, 0)
        stream.integers(0, 2, n, dtype=np.uint8)
        stream.integers(0, 2, n, dtype=np.uint8)
        power = stream.standard_exponential(n)
        assert abs(power.mean() - 1.0) < 3 * power.std() / math.sqrt(n)

    def test_golden_cell_counts(self):
        """Exact per-cell (errors, transmitted) of three chunks under contract v4.

        Changing these means bumping ``DRAW_CONTRACT``.
        """
        assert DRAW_CONTRACT == 4
        scenarios = _contract_scenarios()
        golden = {
            "sss": [[[6, 1, 122, 12], [399, 21, 252, 28]],
                    [[5, 2, 125, 9], [399, 21, 252, 28]],
                    [[3, 2, 104, 5], [342, 18, 216, 24]]],
            "osa": [[[11, 0, 0, 11], [399, 0, 0, 28]],
                    [[15, 0, 0, 15], [399, 0, 0, 28]],
                    [[10, 0, 0, 9], [342, 0, 0, 24]]],
            "peak": [[[9, 0, 89, 8], [399, 21, 252, 28]],
                     [[8, 0, 77, 7], [399, 21, 252, 28]],
                     [[8, 0, 67, 11], [342, 18, 216, 24]]],
        }
        config = MonteCarloConfig(trials=2_000, master_seed=2024, chunk_size=700, point=3)
        for name, scenario in scenarios.items():
            counts = [_chunk_counts(scenario, config, i).tolist() for i in range(3)]
            assert counts == golden[name], name

    def test_golden_full_chunk_counts(self):
        """Exact per-cell (errors, transmitted) of one chunk of the default
        65 536 uses under contract v4, the size the sweeps run.

        Changing these means bumping ``DRAW_CONTRACT``.
        """
        for name, scenario in _contract_scenarios().items():
            counts = _chunk_counts(scenario, _FULL_CHUNK, 0).tolist()
            assert counts == _FULL_CHUNK_GOLDEN[name], name

    @pytest.mark.parametrize("name,modulation", [
        *(pytest.param(name, None, id=name) for name in ("sss", "osa", "peak")),
        *(pytest.param(name, modulation, id=f"{name}-{modulation[0]}x{modulation[1]}")
          for name in ("sss", "osa", "peak")
          for modulation in ((2, 1), (8, 1), (4, 4), (16, 2))),
    ])
    def test_replayed_draws_through_public_detector(self, name, modulation):
        """One chunk's v4 draws, replayed from raw SFC64 Generator calls and
        decided by ``detect_threshold``.

        Each trial's derotated sample is rebuilt as |h| s + w, with s on the
        unit-power levels scaled by sqrt(P) through the magnitude |h| sqrt(P).
        The per-cell errors must equal the engine's exactly, on the contract
        scenarios and on PAM and QAM grids with one, two, four and sixteen
        levels per axis, so that the bottom, inner and top levels all meet
        the public detector.
        """
        scenario = _contract_scenarios(modulation)[name]
        config = MonteCarloConfig(trials=40_000, master_seed=2024, chunk_size=20_000, point=3)
        errors, drawn = _chunk_counts(scenario, config, 1)
        n = int(drawn.sum())

        seq = np.random.SeedSequence(2024, spawn_key=(3, 1))
        rng = np.random.Generator(np.random.SFC64(seq))
        if scenario.power_policy == "peak_interference":
            c = scenario.constraints
            with np.errstate(divide="ignore"):
                power = np.minimum(c.peak_interference / rng.exponential(1.0, n), c.peak_power)
        else:
            p_busy = scenario.spec_busy.power if scenario.scheme is Scheme.SSS else 0.0
            power = np.repeat([scenario.spec_idle.power if decision == IDLE else p_busy
                               for _, decision in CELLS], drawn)
        unit = ConstellationSpec(scenario.spec_idle.m_inphase,
                                 scenario.spec_idle.m_quadrature, 1.0)
        n_true = rng.integers(0, unit.m_inphase, n, dtype=np.uint8)
        q_true = rng.integers(0, unit.m_quadrature, n, dtype=np.uint8)
        fade = rng.standard_exponential(n)
        w = math.sqrt(scenario.noise_variance) * rng.standard_normal((2, n))
        # the mixture draw per truly busy cell: component counts, then one
        # (2, count) normal block per component
        mixture = scenario.interference
        stops = np.cumsum(drawn)
        for (state, _), k, stop in zip(CELLS, drawn, stops):
            if state == IDLE or k == 0:
                continue
            start = stop - k
            for count, (_, variance) in zip(rng.multinomial(k, mixture.weights),
                                            mixture.components):
                if count:
                    block = math.sqrt(variance) * rng.standard_normal((2, count))
                    w[:, start:start + count] += block
                    start += count

        assert fade.all()  # no deep fade, which detect_threshold rejects
        magnitude = np.sqrt(fade * power)
        sample = np.empty(n, dtype=complex)
        sample.real = magnitude * unit.inphase_levels()[n_true] + w[0]
        sample.imag = magnitude * unit.quadrature_levels()[q_true] + w[1]
        n_det, q_det = detect_threshold(unit, sample, magnitude)
        replayed = _cell_sums((n_det != n_true) | (q_det != q_true), drawn)
        assert errors.sum() > 0
        assert replayed == errors.tolist()

    def test_deep_fade_decides_index_zero(self):
        # |h|^2 drawn as exactly 0.0 decides symbol 0, without a warning
        scenario = make_scenario(Scheme.SSS, (4, 2), p0=1.0, p1=0.3)
        drawn = _cell_uses(scenario.sensing, 3_000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            errors = _simulate_chunk(scenario, _DeepFades(_chunk_rng(5, 0, 0)), drawn)
        rng = _chunk_rng(5, 0, 0)
        n_true = rng.integers(0, 4, 3_000, dtype=np.uint8)
        q_true = rng.integers(0, 2, 3_000, dtype=np.uint8)
        assert errors.tolist() == _cell_sums((n_true != 0) | (q_true != 0), drawn)

    def test_ties_go_to_the_smaller_index(self):
        """Noise exactly on +-half the faded minimum distance, at the bottom,
        inner and top levels of both axes of 4x4 QAM: on +half the sample
        keeps its level, on -half it goes to the one below, if there is one.

        At P = 10, d = 2 |h| and (d/2)^2 P rounds to exactly 1, so both the
        chunk and ``detect_threshold`` see each tie exactly."""
        noise = (-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0)
        trials = [(n, q, w_n, w_q) for n in range(4) for q in range(4)
                  for w_n in noise for w_q in noise]
        engine, reference = _planted_errors((4, 4), 10.0, trials)
        assert engine == reference
        for (n, q, w_n, w_q), error in zip(trials, engine):
            if w_q == 0.0 and abs(w_n) == 1.0:
                assert error == (w_n == -1.0 and n > 0)

    def test_one_level_axis_never_errs(self):
        """8x1 PAM: no quadrature noise, ties included, makes an error."""
        noise = (-1e3, -3.0, -1.0, 0.0, 1.0, 3.0, 1e3)
        trials = [(n, 0, 0.0, w_q) for n in range(8) for w_q in noise]
        engine, reference = _planted_errors((8, 1), 21.0, trials)
        assert engine == reference == [0] * len(trials)

    def test_each_cell_unbiased(self):
        """Every cell's error rate within 3 sigma of its own closed form.

        The mixture's draws come out grouped by component, so the chunk draws
        them once per truly busy cell. One draw over both busy cells would
        crowd a component into one of them; with P0 != P1 their error rates
        then move apart although the total may not.
        """
        scenario = _contract_scenarios()["sss"]
        spec = scenario.spec_idle
        config = MonteCarloConfig(trials=400_000, master_seed=2718)
        chunks = -(-config.trials // config.chunk_size)  # ceil
        errors, drawn = sum(_chunk_counts(scenario, config, i) for i in range(chunks))
        s0, mixture = scenario.noise_variance, scenario.interference
        table = _branches(scenario)
        for (state, decision), e, k in zip(CELLS, errors, drawn):
            power = (scenario.spec_busy if decision == BUSY else spec).power
            terms = ([(1.0, s0)] if state == IDLE else
                     [(lam, s0 + v) for lam, v in mixture.components])
            p = sum(lam * _rayleigh_term(power, v, table, False) for lam, v in terms)
            sigma = math.sqrt(p * (1 - p) / k)
            assert abs(e / k - p) <= 3 * sigma, (state, decision, (e / k - p) / sigma)


class _SampleSpy:
    """Records the size of every interference draw.

    It wraps ``GaussianMixture._add_sample``, which both the chunk and the
    public ``sample`` draw through.
    """

    def __init__(self, monkeypatch):
        self.sizes = []
        original = GaussianMixture._add_sample

        def add_sample(mixture, rng, real, imag, scratch):
            self.sizes.append(len(real))
            return original(mixture, rng, real, imag, scratch)

        monkeypatch.setattr(GaussianMixture, "_add_sample", add_sample)


class TestSkippedWork:
    """Since contract v2, a chunk draws nothing that the estimate does not use."""

    @pytest.mark.parametrize("scheme,busy_cells", [(Scheme.SSS, (2, 3)), (Scheme.OSA, (3,))])
    def test_interference_drawn_only_for_busy_transmissions(
            self, monkeypatch, sensing, scheme, busy_cells):
        spy = _SampleSpy(monkeypatch)
        scenario = make_scenario(scheme, (2, 2), p0=1.0)
        run_monte_carlo(scenario, MonteCarloConfig(trials=50_000, master_seed=8,
                                                   chunk_size=20_000))
        uses = _cell_uses(sensing, 50_000)
        assert len(spy.sizes) == 3 * len(busy_cells)  # once per busy cell of each chunk
        assert sum(spy.sizes) == sum(uses[c] for c in busy_cells)

    @pytest.mark.parametrize("trials,chunk", [(123_457, 10_000), (999, 1_000), (5, 2)])
    def test_osa_skips_equal_allocation(self, sensing, trials, chunk):
        scenario = make_scenario(Scheme.OSA, (2, 2), p0=1.0)
        estimate = run_monte_carlo(scenario, MonteCarloConfig(trials, 9, chunk_size=chunk))
        uses = _cell_uses(sensing, trials)
        assert estimate.skipped == uses[1] + uses[2]  # the busy decisions
        assert estimate.trials == uses[0] + uses[3]

    @pytest.mark.parametrize("scheme", [Scheme.SSS, Scheme.OSA])
    def test_idle_prior_never_errs(self, monkeypatch, scheme):
        spy = _SampleSpy(monkeypatch)
        scenario = make_scenario(scheme, (2, 1), p0=1.0, p1=1.0,
                                 sensing=SensingModel(0.9, 0.05, 0.0),
                                 noise_variance=1e-12,
                                 mixture=GaussianMixture.from_lists([1.0], [1e12]))
        estimate = run_monte_carlo(scenario, MonteCarloConfig(trials=30_000, master_seed=10,
                                                              chunk_size=10_000))
        assert estimate.errors == 0 and estimate.trials > 0
        assert spy.sizes == []


class TestWorkspace:
    """Each thread draws and detects in chunk buffers it keeps; reusing them
    must not change a count."""

    @pytest.mark.parametrize("large,small", [("sss", "osa"), ("osa", "peak"), ("peak", "sss")])
    def test_smaller_chunk_in_between_leaves_counts(self, large, small):
        scenarios = _contract_scenarios()
        task = (scenarios[large], _FULL_CHUNK, 0)

        def run():
            first = _chunk_counts(*task).tolist()
            _chunk_counts(scenarios[small], MonteCarloConfig(5_000, 11), 0)
            return first, _chunk_counts(*task).tolist()

        # a thread of its own starts with an empty workspace
        with ThreadPoolExecutor(max_workers=1) as pool:
            first, again = pool.submit(run).result(timeout=120)
        assert first == again == _FULL_CHUNK_GOLDEN[large]

    def test_concurrent_chunks_match_serial(self):
        scenarios = _contract_scenarios()
        # each scenario draws under its own point, chunks of three sizes
        tasks = [(scenario, MonteCarloConfig(stop, 2024, point=point), 0)
                 for point, scenario in enumerate(scenarios.values())
                 for stop in (65_536, 7_000, 30_000)]
        serial = [_chunk_counts(*task).tolist() for task in tasks]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(_chunk_counts, *task) for task in tasks * 3]
                concurrent = [future.result(timeout=120).tolist() for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert concurrent == serial * 3

    def test_pooled_runs_under_rapid_switching_match_one_worker(self):
        """Four threads per pool, more than the cores, switching every
        microsecond, and two pools at once: every estimate is its one-worker
        estimate, so no chunk sees another thread's buffers."""
        scenarios = _contract_scenarios()
        points = [(scenario, MonteCarloConfig(20_000, 2024, chunk_size=3_000, point=point))
                  for point, scenario in enumerate(scenarios.values())]
        serial = run_estimates(points, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        callers = ThreadPoolExecutor(max_workers=2)
        try:
            futures = [callers.submit(run_estimates, runs, 4)
                       for runs in (points, points[::-1], points)]
            pooled = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
            # a hung pool fails the test here instead of hanging it
            callers.shutdown(wait=False, cancel_futures=True)
        assert pooled == [serial, serial[::-1], serial]

    @pytest.mark.parametrize("name", ["sss", "osa", "peak"])
    def test_warm_chunk_allocates_little(self, name):
        """After a warm-up chunk, a 65 536-use chunk allocates little.

        The new arrays left are the two one-byte symbol index draws (0.14,
        0.09 and 0.14 MB peak here); the peak policy writes its powers over
        the gain draw, and a fresh power array took 0.67 MB. Deciding by
        rounding the scaled sample instead of comparing the noise with a
        threshold took 0.06 MB more at SSS and OSA. With int64 symbols and
        the mixture's choice draws a chunk took 1.2 MB at SSS and 0.4 MB at
        OSA, and with a fresh array for every stage 2.9-4.8 MB.
        """
        task = (_contract_scenarios()[name], _FULL_CHUNK, 0)
        _chunk_counts(*task)
        tracemalloc.start()
        try:
            _chunk_counts(*task)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.3e6


def test_docs_name_the_contract():
    """README's Reproducibility section and the engine's module docstring
    name the contract version and the bit generator ``_chunk_rng`` builds."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Reproducibility", 1)[1].split("\n## ", 1)[0]
    assert re.search(r"DRAW_CONTRACT`, now (\d+)\)", section).group(1) == str(DRAW_CONTRACT)
    assert f"v{DRAW_CONTRACT} " in simulation.__doc__
    bit_generator = type(_chunk_rng(0, 0, 0).bit_generator).__name__
    assert bit_generator in section
    assert bit_generator in simulation.__doc__
