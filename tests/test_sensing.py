import math

import numpy as np
import pytest

from cogsep import (
    GaussianMixture,
    MonteCarloConfig,
    Occupancy,
    Scheme,
    SensingModel,
    run_monte_carlo,
)
from cogsep.sensing import ConditioningError

from conftest import make_scenario

IDLE, BUSY = Occupancy.IDLE, Occupancy.BUSY


class TestValidation:
    @pytest.mark.parametrize("field", ["p_detect", "p_false_alarm", "prior_busy"])
    # text at construction, not first use; True is not a probability
    @pytest.mark.parametrize("bad", [-0.1, 1.1, "0.05", True])
    def test_fields_in_unit_interval(self, field, bad):
        kwargs = dict(p_detect=0.9, p_false_alarm=0.05, prior_busy=0.4)
        kwargs[field] = bad
        with pytest.raises(ValueError, match=f"^{field} must lie in"):
            SensingModel(**kwargs)

    def test_prior_idle(self):
        assert SensingModel(0.9, 0.05, 0.4).prior_idle == pytest.approx(0.6)

    def test_fields_stored_as_checked_floats(self):
        """A float32 field is kept as the Python float it was checked as, so
        the posteriors carry double precision."""
        model = SensingModel(np.float32(0.9), np.float32(0.05), 0.4)
        assert all(type(value) is float for value in
                   (model.p_detect, model.p_false_alarm, *model.posteriors(BUSY)))
        assert model.p_detect == float(np.float32(0.9))
        assert model == SensingModel(float(np.float32(0.9)), float(np.float32(0.05)), 0.4)


class TestDecisionProb:
    def test_perfect_sensing(self):
        model = SensingModel(1.0, 0.0, 0.4)
        assert model.decision_prob(BUSY) == pytest.approx(0.4)

    def test_default_model(self, sensing):
        assert sensing.decision_prob(BUSY) == pytest.approx(0.39, abs=1e-15)
        assert sensing.decision_prob(IDLE) == pytest.approx(0.61, abs=1e-15)


class TestPosterior:
    def test_perfect_sensing(self):
        model = SensingModel(1.0, 0.0, 0.4)
        assert model.posteriors(BUSY)[1:] == pytest.approx((0.0, 1.0))
        assert model.posteriors(IDLE)[1:] == pytest.approx((1.0, 0.0))

    def test_default_model(self, sensing):
        # Pr{decision} comes first, then Pr{idle | decision} and Pr{busy | decision}
        assert sensing.posteriors(BUSY) == pytest.approx((0.39, 0.03 / 0.39, 0.36 / 0.39),
                                                         rel=1e-14)
        assert sensing.posteriors(IDLE) == pytest.approx((0.61, 0.57 / 0.61, 0.04 / 0.61),
                                                         rel=1e-14)

    def test_posteriors_sum_to_one(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            model = SensingModel(*rng.uniform(0.01, 0.99, 3))
            for decision in (IDLE, BUSY):
                _, post_idle, post_busy = model.posteriors(decision)
                total = post_idle + post_busy
                assert total == pytest.approx(1.0, abs=1e-14)

    def test_law_of_total_probability(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            model = SensingModel(*rng.uniform(0.0, 1.0, 3))
            for state in (IDLE, BUSY):
                total = 0.0
                for decision in (IDLE, BUSY):
                    weight = model.decision_prob(decision)
                    if weight == 0.0:
                        continue
                    total += weight * model.posteriors(decision)[1 + state]
                assert abs(total - model.prior(state)) <= 1e-12

    def test_zero_probability_decision_raises(self):
        model = SensingModel(p_detect=0.9, p_false_alarm=0.0, prior_busy=0.0)
        with pytest.raises(ConditioningError):
            model.posteriors(BUSY)


class TestSampling:
    """The Monte Carlo engine's allocation of (true state, sensing decision).

    Under interference of per-axis variance 1e12 and noise of 1e-12, a
    transmission errs with probability 1/2 (2-PAM) when the channel is truly
    busy and never when it is idle, so the error and skip counts expose the
    state and decision of every trial.
    """

    @staticmethod
    def _run(scheme, model, trials=20_000, seed=10):
        scenario = make_scenario(scheme, (2, 1), p0=1.0, sensing=model,
                                 noise_variance=1e-12,
                                 mixture=GaussianMixture.from_lists([1.0], [1e12]))
        return run_monte_carlo(scenario, MonteCarloConfig(trials, seed))

    def test_perfect_sensing_decisions_match_state(self):
        estimate = self._run(Scheme.OSA, SensingModel(1.0, 0.0, 0.5))
        assert estimate.errors == 0  # no transmission on a busy channel
        assert 0.48 < estimate.skip_fraction < 0.52  # every busy one skipped

    def test_idle_prior_means_always_idle(self):
        estimate = self._run(Scheme.SSS, SensingModel(0.9, 0.05, 0.0), seed=11)
        assert estimate.errors == 0

    def test_empirical_joint_frequencies(self, sensing):
        n = 1_000_000
        estimate = self._run(Scheme.OSA, sensing, trials=n, seed=12)
        # skips are the busy decisions; errors are half the (busy, idle-decided) cell
        missed = sensing.prior(BUSY) * sensing.decision_given_state(IDLE, BUSY)
        for count, p in ((estimate.skipped, sensing.decision_prob(BUSY)),
                         (estimate.errors, missed / 2)):
            assert abs(count / n - p) < 3 * math.sqrt(p * (1 - p) / n)
