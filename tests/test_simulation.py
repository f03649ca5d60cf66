import math
import re
import sys
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
    _chunk_bounds,
    _chunk_counts,
    _chunk_rng,
    _simulate_chunk,
    monte_carlo_pool,
)

from conftest import P_4DB, make_scenario


class TestConfigValidation:
    def test_trials_positive(self):
        with pytest.raises(ValueError):
            MonteCarloConfig(trials=0, master_seed=1)

    def test_chunk_positive(self):
        with pytest.raises(ValueError):
            MonteCarloConfig(trials=10, master_seed=1, chunk_size=0)

    def test_seed_nonnegative(self):
        with pytest.raises(ValueError, match="master_seed must be >= 0, got -1"):
            MonteCarloConfig(trials=10, master_seed=-1)

    def test_point_nonnegative(self):
        with pytest.raises(ValueError, match="point must be >= 0"):
            MonteCarloConfig(trials=10, master_seed=1, point=-1)

    @pytest.mark.parametrize("field", ["trials", "master_seed", "chunk_size", "point"])
    def test_counts_must_be_integers(self, field):
        fields = {"trials": 10, "master_seed": 1, "chunk_size": 4, "point": 0}
        with pytest.raises(ValueError, match=f"{field} must be an integer, got 1000000.0"):
            MonteCarloConfig(**{**fields, field: 1e6})
        assert MonteCarloConfig(**{**fields, field: np.int64(3)}).trials >= 1


def _counts(scenario, trials, seed=21):
    """One chunk's per-cell (errors, transmitted) over ``trials`` channel uses."""
    return _chunk_counts((scenario, seed, 0, 0, 0, trials))


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

    def test_pool_capped_at_chunk_count(self, pool_sizes):
        scenario = make_scenario(Scheme.OSA, (2, 2), p0=1.0)
        config = MonteCarloConfig(trials=2_500, master_seed=5, chunk_size=1_000)
        pooled = run_monte_carlo(scenario, config, workers=64)
        assert pool_sizes == [3]
        assert pooled == run_monte_carlo(scenario, config, workers=1)

    @pytest.mark.parametrize("workers,trials", [(1, 2_500), (8, 1_000)])
    def test_no_pool_for_one_worker_or_one_chunk(self, pool_sizes, workers, trials):
        scenario = make_scenario(Scheme.OSA, (2, 2), p0=1.0)
        config = MonteCarloConfig(trials=trials, master_seed=5, chunk_size=1_000)
        run_monte_carlo(scenario, config, workers=workers)
        assert pool_sizes == []

    @pytest.mark.parametrize("workers,sizes", [(1, []), (2, [2])])
    def test_pool_counts_chunks_without_listing_them(self, pool_sizes, workers, sizes):
        # a list of 10**9 chunk bounds would take tens of GB
        config = MonteCarloConfig(trials=10**9, master_seed=5, chunk_size=1)
        tracemalloc.start()
        try:
            pool = monte_carlo_pool(workers, [config])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (pool is None) == (workers == 1)
        assert pool_sizes == sizes
        assert peak < 0.1e6

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        config = MonteCarloConfig(trials=1_000, master_seed=5)
        with pytest.raises(ValueError, match="workers must be >= 1"):
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


class TestEstimate:
    def test_accounting(self):
        scenario = make_scenario(Scheme.OSA, (2, 2), p0=1.0)
        config = MonteCarloConfig(trials=123_457, master_seed=11, chunk_size=10_000)
        estimate = run_monte_carlo(scenario, config)
        assert estimate.trials + estimate.skipped == 123_457
        assert estimate.sep == estimate.errors / estimate.trials
        # OSA skips exactly on busy decisions
        p_skip = scenario.sensing.decision_prob(1)
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


def _contract_scenarios():
    """The SSS, OSA and peak-policy scenarios the draw contract is pinned on."""
    return {
        "sss": make_scenario(Scheme.SSS, (2, 2), p0=1.0, p1=0.3),
        "osa": make_scenario(Scheme.OSA, (4, 1), p0=1.0),
        "peak": make_scenario(
            Scheme.SSS, (2, 2), p0=P_4DB, p1=P_4DB,
            constraints=ConstraintSet(peak_power=P_4DB, peak_interference=1.0),
            power_policy="peak_interference"),
    }


def _cell_sums(values, drawn):
    """Sum of ``values`` over each cell's slice of a chunk laid out cell by cell."""
    return [int(cell.sum()) for cell in np.split(values, np.cumsum(drawn)[:-1])]


# per-cell (errors, transmitted) of _chunk_counts((scenario, 2024, 3, 0, 0, 65_536))
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


class TestDrawContract:
    def test_four_case_frequencies_and_fading_power(self, sensing):
        # every cell total is within one trial of N * pi_c, for any N, and a
        # chunk's cells are its offsets' difference, never negative
        rng = np.random.default_rng(4242)
        models = [sensing] + [SensingModel(*rng.uniform(0, 1, 3)) for _ in range(30)]
        for model in models:
            pi = np.array([model.prior(state) * model.decision_given_state(decision, state)
                           for state, decision in CELLS])
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
            counts = [_chunk_counts((scenario, 2024, 3, i, start, stop)).tolist()
                      for i, (start, stop) in enumerate(_chunk_bounds(config))]
            assert counts == golden[name], name

    def test_golden_full_chunk_counts(self):
        """Exact per-cell (errors, transmitted) of one chunk of the default
        65 536 uses under contract v4, the size the sweeps run.

        Changing these means bumping ``DRAW_CONTRACT``.
        """
        for name, scenario in _contract_scenarios().items():
            counts = _chunk_counts((scenario, 2024, 3, 0, 0, 65_536)).tolist()
            assert counts == _FULL_CHUNK_GOLDEN[name], name

    @pytest.mark.parametrize("name", ["sss", "osa", "peak"])
    def test_replayed_draws_through_public_detector(self, name):
        """One chunk's v4 draws, replayed from raw SFC64 Generator calls and
        decided by ``detect_threshold``.

        Each trial's derotated sample is rebuilt as |h| s + w, with s on the
        unit-power levels scaled by sqrt(P) through the magnitude |h| sqrt(P).
        The per-cell errors must equal the engine's exactly.
        """
        scenario = _contract_scenarios()[name]
        errors, drawn = _chunk_counts((scenario, 2024, 3, 1, 20_000, 40_000))
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
        errors, drawn = sum(_chunk_counts((scenario, config.master_seed, 0, i, start, stop))
                            for i, (start, stop) in enumerate(_chunk_bounds(config)))
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
        task = (scenarios[large], 2024, 3, 0, 0, 65_536)

        def run():
            first = _chunk_counts(task).tolist()
            _chunk_counts((scenarios[small], 11, 0, 0, 0, 5_000))
            return first, _chunk_counts(task).tolist()

        # a thread of its own starts with an empty workspace
        with ThreadPoolExecutor(max_workers=1) as pool:
            first, again = pool.submit(run).result(timeout=120)
        assert first == again == _FULL_CHUNK_GOLDEN[large]

    def test_concurrent_chunks_match_serial(self):
        scenarios = _contract_scenarios()
        tasks = [(scenario, 2024, 3, i, 0, stop)
                 for i, scenario in enumerate(scenarios.values())
                 for stop in (65_536, 7_000, 30_000)]
        serial = [_chunk_counts(task).tolist() for task in tasks]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(_chunk_counts, task) for task in tasks * 3]
                concurrent = [future.result(timeout=120).tolist() for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert concurrent == serial * 3

    @pytest.mark.parametrize("name", ["sss", "osa", "peak"])
    def test_warm_chunk_allocates_little(self, name):
        """After a warm-up chunk, a 65 536-use chunk allocates little.

        The new arrays left are the two one-byte symbol index draws and the
        peak policy's powers (0.20, 0.15 and 0.67 MB peak here). With int64
        symbols and the mixture's choice draws a chunk took 1.2 MB at SSS
        and 0.4 MB at OSA, and with a fresh array for every stage 2.9-4.8 MB.
        """
        task = (_contract_scenarios()[name], 2024, 3, 0, 0, 65_536)
        _chunk_counts(task)
        tracemalloc.start()
        try:
            _chunk_counts(task)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < {"sss": 0.3e6, "osa": 0.3e6, "peak": 0.8e6}[name]


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
