import math

import numpy as np
import pytest

from cogsep import (
    ConstraintSet,
    MonteCarloConfig,
    Scheme,
    SensingModel,
    run_monte_carlo,
    sep_peak_interference_exact,
    sep_rayleigh,
)
from cogsep.simulation import InsufficientDataError, _chunk_rng, _simulate_chunk

from conftest import P_4DB, make_scenario


class TestConfigValidation:
    def test_trials_positive(self):
        with pytest.raises(ValueError):
            MonteCarloConfig(trials=0, master_seed=1)

    def test_chunk_positive(self):
        with pytest.raises(ValueError):
            MonteCarloConfig(trials=10, master_seed=1, chunk_size=0)


class TestRunTrial:
    """Per-trial outcomes of one chunk: (symbol error, transmitted) masks."""

    def test_noiseless_idle_channel_never_errs(self):
        quiet = SensingModel(1.0, 0.0, 0.0)
        scenario = make_scenario(Scheme.SSS, (2, 2), sensing=quiet,
                                 noise_variance=1e-12)
        error, _ = _simulate_chunk(scenario, np.random.default_rng(21), 500)
        assert not error.any()

    def test_osa_busy_decision_skips(self):
        always_busy = SensingModel(0.9, 1.0, 0.0)  # idle channel, certain alarm
        scenario = make_scenario(Scheme.OSA, (2, 2), sensing=always_busy)
        error, transmit = _simulate_chunk(scenario, np.random.default_rng(22), 200)
        assert not transmit.any() and not error.any()

    def test_sss_never_skips(self):
        scenario = make_scenario()
        _, transmit = _simulate_chunk(scenario, np.random.default_rng(23), 200)
        assert transmit.all()


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
        # mirror the documented chunk draw order (occupancy, decision, symbol,
        # fading); the order is part of the reproducibility contract
        n = 500_000
        rng = _chunk_rng(4242, 0)
        busy = rng.random(n) < sensing.prior_busy
        p_busy_decision = np.where(busy, sensing.p_detect, sensing.p_false_alarm)
        decided_busy = rng.random(n) < p_busy_decision
        rng.integers(0, 4, n)
        h = math.sqrt(0.5) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))

        for state, decision in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            expected = (sensing.prior(state)
                        * sensing.decision_given_state(decision, state))
            observed = np.mean((busy == state) & (decided_busy == decision))
            sigma = math.sqrt(expected * (1 - expected) / n)
            assert abs(observed - expected) < 3 * sigma

        power = np.abs(h) ** 2
        assert abs(power.mean() - 1.0) < 3 * power.std() / math.sqrt(n)
