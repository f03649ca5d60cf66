import math

import numpy as np
import pytest

from cogsep import (
    ConstraintSet,
    GaussianMixture,
    MonteCarloConfig,
    Scheme,
    SensingModel,
    run_monte_carlo,
    sep_peak_interference_exact,
    sep_rayleigh,
)
from cogsep.simulation import (
    CELLS,
    DRAW_CONTRACT,
    InsufficientDataError,
    _cell_uses,
    _chunk_bounds,
    _chunk_counts,
    _chunk_rng,
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

        # fading follows the symbol draw in the documented chunk order
        n = 500_000
        stream = _chunk_rng(4242, 0, 0)
        stream.integers(0, 4, n)
        h = math.sqrt(0.5) * stream.standard_normal(2 * n).view(np.complex128)
        power = np.abs(h) ** 2
        assert abs(power.mean() - 1.0) < 3 * power.std() / math.sqrt(n)

    def test_golden_cell_counts(self):
        """Exact per-cell (errors, transmitted) of three chunks under contract v2.

        Changing these means bumping ``DRAW_CONTRACT``.
        """
        assert DRAW_CONTRACT == 2
        scenarios = {
            "sss": make_scenario(Scheme.SSS, (2, 2), p0=1.0, p1=0.3),
            "osa": make_scenario(Scheme.OSA, (4, 1), p0=1.0),
            "peak": make_scenario(
                Scheme.SSS, (2, 2), p0=P_4DB, p1=P_4DB,
                constraints=ConstraintSet(peak_power=P_4DB, peak_interference=1.0),
                power_policy="peak_interference"),
        }
        golden = {
            "sss": [[[12, 3, 131, 8], [399, 21, 252, 28]],
                    [[5, 2, 125, 10], [399, 21, 252, 28]],
                    [[5, 1, 116, 5], [342, 18, 216, 24]]],
            "osa": [[[12, 0, 0, 13], [399, 0, 0, 28]],
                    [[14, 0, 0, 14], [399, 0, 0, 28]],
                    [[12, 0, 0, 10], [342, 0, 0, 24]]],
            "peak": [[[8, 0, 89, 9], [399, 21, 252, 28]],
                     [[10, 0, 77, 17], [399, 21, 252, 28]],
                     [[3, 2, 72, 8], [342, 18, 216, 24]]],
        }
        config = MonteCarloConfig(trials=2_000, master_seed=2024, chunk_size=700, point=3)
        for name, scenario in scenarios.items():
            counts = [_chunk_counts((scenario, 2024, 3, i, start, stop)).tolist()
                      for i, (start, stop) in enumerate(_chunk_bounds(config))]
            assert counts == golden[name], name


class _SampleSpy:
    """Records the size of every interference draw."""

    def __init__(self, monkeypatch):
        self.sizes = []
        original = GaussianMixture.sample

        def sample(mixture, rng, size=None):
            self.sizes.append(size)
            return original(mixture, rng, size)

        monkeypatch.setattr(GaussianMixture, "sample", sample)


class TestSkippedWork:
    """v2 draws nothing that the estimate does not use."""

    @pytest.mark.parametrize("scheme,busy_cells", [(Scheme.SSS, (2, 3)), (Scheme.OSA, (3,))])
    def test_interference_drawn_only_for_busy_transmissions(
            self, monkeypatch, sensing, scheme, busy_cells):
        spy = _SampleSpy(monkeypatch)
        scenario = make_scenario(scheme, (2, 2), p0=1.0)
        run_monte_carlo(scenario, MonteCarloConfig(trials=50_000, master_seed=8,
                                                   chunk_size=20_000))
        uses = _cell_uses(sensing, 50_000)
        assert len(spy.sizes) == 3
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
