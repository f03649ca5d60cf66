import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import dblquad

from cogsep import analytic
from cogsep import (
    ConstellationSpec,
    ConstraintSet,
    GaussianMixture,
    PointClass,
    Scenario,
    Scheme,
    SensingModel,
    gaussian_q,
    max_power_osa,
    optimize_powers_sss,
    peak_power_policy,
    sep_class_conditional,
    sep_conditional,
    sep_general_numeric,
    sep_peak_interference,
    sep_peak_interference_exact,
    sep_peak_interference_oracle,
    sep_rayleigh,
    sep_rayleigh_numeric,
    sep_upper_bound,
)
from cogsep.analytic import (_axis_error, _branches, _float_sep, _powers, _q_term,
                             _rayleigh_term, _region_1d, _sep)
from cogsep.mathcore import QuadratureError
from cogsep.sensing import Occupancy

from conftest import P_4DB, make_scenario


class TestScenarioValidation:
    def test_osa_rejects_busy_spec(self, sensing, mixture):
        with pytest.raises(ValueError, match="P1 = 0"):
            Scenario(Scheme.OSA, ConstellationSpec(2, 2, 1.0),
                     ConstellationSpec(2, 2, 1.0), sensing, 0.01, mixture)

    def test_sss_requires_busy_spec(self, sensing, mixture):
        with pytest.raises(ValueError, match="busy-decision"):
            Scenario(Scheme.SSS, ConstellationSpec(2, 2, 1.0), None,
                     sensing, 0.01, mixture)

    def test_grid_mismatch_rejected(self, sensing, mixture):
        with pytest.raises(ValueError, match="grid"):
            Scenario(Scheme.SSS, ConstellationSpec(2, 2, 1.0),
                     ConstellationSpec(4, 2, 1.0), sensing, 0.01, mixture)

    def test_constraints_positive(self):
        with pytest.raises(ValueError):
            ConstraintSet(peak_power=0.0)
        with pytest.raises(ValueError):
            ConstraintSet(peak_power=1.0, avg_interference=-0.5)
        finite = dict(peak_power=1.0, avg_interference=1.0, peak_interference=1.0,
                      mean_gain_to_primary=1.0)
        for name in finite:
            for value in (math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                    ConstraintSet(**{**finite, name: value})

    @pytest.mark.parametrize("avg", [1e-300, 1e-320], ids=["zero", "subnormal"])
    def test_budget_must_not_underflow(self, avg):
        with pytest.raises(ValueError, match="underflows"):
            ConstraintSet(peak_power=1.0, avg_interference=avg, mean_gain_to_primary=1e300)

    @pytest.mark.parametrize("constraints", [
        None, ConstraintSet(peak_power=1.0, avg_interference=0.1)],
        ids=["no-constraints", "average-only"])
    def test_peak_policy_needs_peak_constraint(self, sensing, mixture, constraints):
        with pytest.raises(ValueError, match="peak_interference policy"):
            Scenario(Scheme.SSS, ConstellationSpec(2, 2, 1.0),
                     ConstellationSpec(2, 2, 1.0), sensing, 0.01, mixture,
                     constraints, power_policy="peak_interference")


class TestSepClassConditional:
    def test_zero_magnitude_corner(self, mixture):
        spec = ConstellationSpec(2, 2, 1.0)
        conv = mixture.convolve_with_gaussian(0.01)
        value = sep_class_conditional(PointClass.CORNER, spec, 0.0, 0.7, 0.01, conv)
        assert value == pytest.approx(0.75, abs=1e-14)

    def test_zero_magnitude_inner(self, mixture):
        spec = ConstellationSpec(4, 4, 1.0)
        conv = mixture.convolve_with_gaussian(0.01)
        value = sep_class_conditional(PointClass.INNER, spec, 0.0, 0.5, 0.01, conv)
        assert value == pytest.approx(1.0, abs=1e-14)

    def test_four_qam_corner_gaussian_branch(self, mixture):
        spec = ConstellationSpec(2, 2, 1.0)
        conv = mixture.convolve_with_gaussian(0.01)
        got = sep_class_conditional(PointClass.CORNER, spec, 1.0, 1.0, 0.01, conv)
        q = gaussian_q(math.sqrt(50.0))
        assert got == pytest.approx(2 * q - q * q, rel=1e-12)
        assert got == pytest.approx(1.54e-12, rel=0.02)

    def test_pam_has_no_inner_class(self, mixture):
        spec = ConstellationSpec(8, 1, 1.0)
        conv = mixture.convolve_with_gaussian(0.01)
        with pytest.raises(ValueError, match="inner"):
            sep_class_conditional(PointClass.INNER, spec, 1.0, 0.5, 0.01, conv)

    @pytest.mark.parametrize("modulation", [(2, 2), (8, 2), (4, 4), (8, 1), (2, 1)])
    def test_class_weighted_sum_matches_conditional(self, modulation, sensing, mixture):
        scenario = make_scenario(modulation=modulation, p0=P_4DB, p1=0.8)
        conv = mixture.convolve_with_gaussian(0.01)
        magnitude = 0.9
        total = 0.0
        for decision, spec in ((Occupancy.IDLE, scenario.spec_idle),
                               (Occupancy.BUSY, scenario.spec_busy)):
            weight = sensing.decision_prob(decision)
            post_idle = sensing.posterior(Occupancy.IDLE, decision)
            counts = spec.class_counts()
            branch = sum(
                count * sep_class_conditional(cls, spec, magnitude, post_idle,
                                              0.01, conv)
                for cls, count in counts.items() if count
            )
            total += weight * branch / spec.size
        assert total == pytest.approx(sep_conditional(scenario, magnitude), abs=1e-14)


class TestSepKernel:
    @pytest.mark.parametrize("bound", [False, True])
    @pytest.mark.parametrize("scheme", [Scheme.SSS, Scheme.OSA])
    def test_power_vector_equals_scalar_points(self, scheme, bound):
        scenario = make_scenario(scheme, (8, 2))
        table = _branches(scenario)
        p0 = np.logspace(-1.5, 1.5, 31)
        p1 = p0[::-1].copy()
        vector = _sep(table, _rayleigh_term, _powers(table, p0, p1), bound)
        closed_form = sep_upper_bound if bound else sep_rayleigh
        points = [closed_form(make_scenario(scheme, (8, 2), p0=float(a), p1=float(b)))
                  for a, b in zip(p0, p1)]
        assert vector.tolist() == points

    def test_magnitude_vector_equals_scalar_points(self):
        scenario = make_scenario(modulation=(4, 2), p0=P_4DB, p1=0.7)
        table = _branches(scenario)
        d2 = np.array([scenario.spec_idle.min_distance() ** 2,
                       scenario.spec_busy.min_distance() ** 2])
        magnitudes = np.linspace(0.0, 3.0, 31)
        vector = _sep(table, _q_term, d2[:, None] * magnitudes**2)
        points = [sep_conditional(scenario, float(m)) for m in magnitudes]
        assert vector.tolist() == points


class TestSepConditional:
    @pytest.mark.parametrize("modulation", [(2, 1), (2, 2), (8, 2), (4, 4)])
    def test_zero_magnitude_limit(self, modulation):
        scenario = make_scenario(modulation=modulation)
        m = modulation[0] * modulation[1]
        assert sep_conditional(scenario, 0.0) == pytest.approx(1 - 1 / m, abs=1e-12)

    def test_bounded(self):
        scenario = make_scenario(modulation=(8, 2))
        rng = np.random.default_rng(13)
        m = 16
        for mag in rng.uniform(0, 4, 100):
            value = sep_conditional(scenario, float(mag))
            assert -1e-15 <= value <= 1 - 1 / m + 1e-12

    def test_vanishes_for_large_power_without_interference(self):
        perfect = SensingModel(1.0, 0.0, 0.4)
        values = [
            sep_conditional(make_scenario(Scheme.OSA, (2, 2), p0=p, sensing=perfect), 1.0)
            for p in (0.1, 1.0, 10.0, 100.0, 1e4)
        ]
        # strictly decreasing until the tail underflows to exactly zero
        assert all(a > b or a == b == 0.0 for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-15

    def test_matches_region_quadrature(self):
        scenario = make_scenario(modulation=(2, 2))
        got = sep_general_numeric(scenario, 1.0)
        assert got == pytest.approx(sep_conditional(scenario, 1.0), abs=1e-8)


class TestSepGeneralNumeric:
    def test_two_pam_matches_q_expression(self, sensing, mixture):
        scenario = make_scenario(modulation=(2, 1), p0=1.2, p1=0.4)
        magnitude = 0.8
        expected = 0.0
        for decision, spec in ((Occupancy.IDLE, scenario.spec_idle),
                               (Occupancy.BUSY, scenario.spec_busy)):
            w = sensing.decision_prob(decision)
            post_idle = sensing.posterior(Occupancy.IDLE, decision)
            post_busy = sensing.posterior(Occupancy.BUSY, decision)
            a = spec.min_distance() * magnitude / 2.0
            term_idle = gaussian_q(a / math.sqrt(0.01))
            term_busy = sum(l * gaussian_q(a / math.sqrt(v + 0.01))
                            for l, v in mixture.components)
            expected += w * (post_idle * term_idle + post_busy * term_busy)
        assert sep_general_numeric(scenario, magnitude) == pytest.approx(
            expected, abs=1e-9)

    def test_noiseless_idle_channel_error_free(self):
        quiet = SensingModel(1.0, 0.0, 0.0)
        scenario = make_scenario(Scheme.OSA, (2, 2), p0=1.0, sensing=quiet,
                                 noise_variance=1e-8)
        assert sep_general_numeric(scenario, 1.0) < 1e-12

    def test_per_axis_product_matches_2d_quadrature(self):
        """A circular Gaussian's error mass over the 4x2 regions, integrated
        region by region in 2-D, is E_I + E_Q - E_I E_Q of the per-axis
        error masses."""
        variance, spacing = 0.3, 1.1

        def density(u_q, u_i):
            mag2 = u_i * u_i + u_q * u_q
            return math.exp(-mag2 / (2 * variance)) / (2 * math.pi * variance)

        correct = 0.0
        for n in range(4):
            lo_i, hi_i = _region_1d(n, 4, spacing)
            for q in range(2):
                lo_q, hi_q = _region_1d(q, 2, spacing)
                box, _ = dblquad(density, lo_i, hi_i, lo_q, hi_q,
                                 epsabs=1e-13, epsrel=1e-12)
                correct += box / 8
        e_i, _ = _axis_error(4, spacing, variance)
        e_q, _ = _axis_error(2, spacing, variance)
        assert e_i + e_q - e_i * e_q == pytest.approx(1.0 - correct, abs=1e-10)

    def test_relative_accuracy_at_tiny_sep(self):
        """The error tails are summed, not 1 - correct, and integrated to a
        relative tolerance only, so SEPs of 6.5e-20 to 5e-8 match the closed
        form to 1e-12 relative."""
        for modulation, power, magnitude in (((2, 2), P_4DB, 5.0), ((4, 1), 1.0, 10.0),
                                             ((2, 1), 1.0, 5.0), ((4, 1), P_4DB, 10.0),
                                             ((2, 1), P_4DB, 5.0)):
            scenario = make_scenario(modulation=modulation, p0=power)
            closed = sep_conditional(scenario, magnitude)
            assert closed < 1e-7
            gap = abs(sep_general_numeric(scenario, magnitude) - closed)
            assert gap <= 1e-12 * closed


@pytest.mark.parametrize("function", [sep_conditional, sep_general_numeric])
@pytest.mark.parametrize("magnitude", [-1.0, math.nan, math.inf])
def test_magnitude_nonnegative_and_finite(function, magnitude):
    with pytest.raises(ValueError, match="magnitude must be nonnegative and finite"):
        function(make_scenario(), magnitude)


@pytest.mark.parametrize("oracle,args", [
    (sep_rayleigh_numeric, ()),
    (sep_general_numeric, (0.8,)),
    (sep_peak_interference_oracle, ()),
], ids=["fading", "region", "peak"])
def test_oracle_raises_when_quadrature_exceeds_budget(monkeypatch, oracle, args):
    """Every oracle refuses a result whose error estimate is over its budget."""
    monkeypatch.setattr(analytic, "integrate", lambda f, breaks, rtol, atol=0.0: (0.5, 1e-3))
    constraints = ConstraintSet(peak_power=P_4DB, peak_interference=P_4DB)
    scenario = make_scenario(constraints=constraints, power_policy="peak_interference")
    with pytest.raises(QuadratureError):
        oracle(scenario, *args)


class TestRayleighClosedForms:
    def test_power_to_zero_limit(self):
        scenario = make_scenario(modulation=(2, 2), p0=1e-30, p1=1e-30)
        assert sep_rayleigh(scenario) == pytest.approx(0.75, abs=1e-6)

    def test_single_component_equals_gaussian_model(self, gaussian_mix):
        as_mixture = GaussianMixture.from_lists([1.0], [0.5])
        a = sep_rayleigh(make_scenario(mixture=as_mixture))
        b = sep_rayleigh(make_scenario(mixture=gaussian_mix))
        assert a == b

    @pytest.mark.parametrize("modulation", [(2, 1), (4, 1), (2, 2), (8, 2)])
    def test_sss_matches_fading_average_oracle(self, modulation):
        scenario = make_scenario(modulation=modulation, p0=P_4DB, p1=P_4DB)
        assert sep_rayleigh(scenario) == pytest.approx(
            sep_rayleigh_numeric(scenario), abs=1e-6)

    def test_osa_matches_oracle_at_default_power(self):
        scenario = make_scenario(Scheme.OSA, (2, 2), p0=1.0)
        assert sep_rayleigh(scenario) == pytest.approx(
            sep_rayleigh_numeric(scenario), abs=1e-6)

    def test_osa_all_false_alarms_still_matches_oracle(self, mixture):
        noisy = SensingModel(0.9, 1.0, 0.4)
        scenario = make_scenario(Scheme.OSA, (2, 2), p0=1.0, sensing=noisy)
        assert sep_rayleigh(scenario) == pytest.approx(
            sep_rayleigh_numeric(scenario), abs=1e-6)

    def test_osa_perfect_sensing_is_pure_gaussian_case(self):
        perfect = SensingModel(1.0, 0.0, 0.4)
        scenario = make_scenario(Scheme.OSA, (2, 2), p0=2.0, sensing=perfect)
        k_mod = 2**2 + 2**2 - 2
        beta = math.sqrt(1 + 2 * k_mod * 0.01 / (3 * 2.0))
        expected = ((2 - 1 / 2 - 1 / 2) * (1 - 1 / beta)
                    - 2 * (1 - 1 / 2) * (1 - 1 / 2)
                    * (2 / math.pi / beta * math.atan(1 / beta) - 1 / beta + 0.5))
        assert sep_rayleigh(scenario) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("scheme", [Scheme.SSS, Scheme.OSA])
    def test_monotone_decreasing_in_each_power(self, scheme):
        powers = np.logspace(-1.5, 1.5, 25)
        if scheme is Scheme.OSA:
            values = [sep_rayleigh(make_scenario(scheme, (8, 2), p0=p)) for p in powers]
            assert all(a > b for a, b in zip(values, values[1:]))
        else:
            values = [sep_rayleigh(make_scenario(scheme, (8, 2), p0=p, p1=0.5))
                      for p in powers]
            assert all(a > b for a, b in zip(values, values[1:]))
            values = [sep_rayleigh(make_scenario(scheme, (8, 2), p0=0.5, p1=p))
                      for p in powers]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_square_qam_matches_per_axis_composition(self):
        # independent derivation for the Gaussian-only branch: compose the
        # per-axis error rates and average over fading numerically
        perfect = SensingModel(1.0, 0.0, 0.0)
        scenario = make_scenario(Scheme.OSA, (4, 4), p0=3.0, sensing=perfect)
        d = scenario.spec_idle.min_distance()

        def per_axis(m, h2):
            return 2 * (1 - 1 / m) * gaussian_q(math.sqrt(d * d * h2 / (4 * 0.01)))

        for h2 in (0.25, 1.0, 2.0):
            composed = 1 - (1 - per_axis(4, h2)) * (1 - per_axis(4, h2))
            assert sep_conditional(scenario, math.sqrt(h2)) == pytest.approx(
                composed, rel=1e-12)


class TestUpperBound:
    @pytest.mark.parametrize("modulation", [(2, 1), (4, 1), (8, 1)])
    @pytest.mark.parametrize("scheme", [Scheme.SSS, Scheme.OSA])
    def test_pam_bound_is_exact(self, modulation, scheme):
        scenario = make_scenario(scheme, modulation, p0=P_4DB,
                                 p1=0.7 if scheme is Scheme.SSS else None)
        assert abs(sep_upper_bound(scenario) - sep_rayleigh(scenario)) <= 1e-12

    @pytest.mark.parametrize("modulation", [(2, 2), (8, 2), (4, 4)])
    def test_qam_bound_dominates(self, modulation):
        for p in (0.05, 0.5, 2.5, 20.0):
            scenario = make_scenario(modulation=modulation, p0=p, p1=p)
            assert sep_upper_bound(scenario) >= sep_rayleigh(scenario)

    def test_eight_by_two_gap_positive(self):
        scenario = make_scenario(modulation=(8, 2), p0=P_4DB, p1=P_4DB)
        gap = sep_upper_bound(scenario) - sep_rayleigh(scenario)
        assert gap > 0


class TestPowerPolicies:
    def test_max_power_osa_default_point(self):
        constraints = ConstraintSet(peak_power=P_4DB, avg_interference=0.1)
        assert max_power_osa(constraints, 0.9) == pytest.approx(1.0, rel=1e-12)

    def test_max_power_osa_perfect_detection(self):
        constraints = ConstraintSet(peak_power=P_4DB, avg_interference=0.1)
        assert max_power_osa(constraints, 1.0) == P_4DB

    def test_max_power_osa_loose_constraint(self):
        constraints = ConstraintSet(peak_power=P_4DB, avg_interference=1e9)
        assert max_power_osa(constraints, 0.9) == P_4DB

    @pytest.mark.parametrize("p_detect", [math.nan, 1.5, -0.5])
    def test_max_power_osa_rejects_p_detect_outside_unit_interval(self, p_detect):
        constraints = ConstraintSet(peak_power=P_4DB, avg_interference=0.1)
        with pytest.raises(ValueError, match=r"p_detect must lie in \[0, 1\]"):
            max_power_osa(constraints, p_detect)

    def test_peak_policy_low_gain(self):
        constraints = ConstraintSet(peak_power=P_4DB, peak_interference=1.0)
        assert peak_power_policy(constraints, 0.25) == P_4DB

    def test_peak_policy_high_gain(self):
        constraints = ConstraintSet(peak_power=P_4DB, peak_interference=1.0)
        assert peak_power_policy(constraints, 4.0) == pytest.approx(0.25)

    def test_peak_policy_boundary(self):
        constraints = ConstraintSet(peak_power=2.0, peak_interference=1.0)
        assert peak_power_policy(constraints, 0.5) == 2.0

    def test_peak_policy_zero_gain(self):
        constraints = ConstraintSet(peak_power=2.0, peak_interference=1.0)
        assert peak_power_policy(constraints, 0.0) == 2.0

    @pytest.mark.parametrize("gain", [math.nan, [0.5, math.nan], [1.0, -0.5]],
                             ids=["nan", "array-with-nan", "array-with-negative"])
    def test_peak_policy_rejects_nan_and_negative_gain(self, gain):
        constraints = ConstraintSet(peak_power=2.0, peak_interference=1.0)
        with pytest.raises(ValueError, match="gain must be nonnegative"):
            peak_power_policy(constraints, gain)

    def test_peak_policy_array_equals_scalar_calls(self):
        constraints = ConstraintSet(peak_power=2.0, peak_interference=1.0)
        gains = np.array([0.0, 0.25, 0.5, 0.7, 4.0, np.inf])
        powers = peak_power_policy(constraints, gains)
        assert isinstance(peak_power_policy(constraints, 0.7), float)
        assert powers.tolist() == [peak_power_policy(constraints, float(g)) for g in gains]
        assert peak_power_policy(constraints, np.array([])).shape == (0,)

    def test_missing_constraint_errors(self):
        constraints = ConstraintSet(peak_power=2.0)
        with pytest.raises(ValueError):
            max_power_osa(constraints, 0.9)
        with pytest.raises(ValueError):
            peak_power_policy(constraints, 1.0)


OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
POWERS = st.floats(-6.0, 4.0).map(lambda e: 10.0 ** e)  # 1e-6 .. 1e4, log-uniform


@st.composite
def sss_scenarios(draw):
    """SSS scenarios over every grid shape, 1-3 mixture components, P_d and
    P_f in (0, 1), and peak power and average budget from 1e-6 to 1e4."""
    k = draw(st.integers(1, 3))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    mixture = GaussianMixture.from_lists(
        [w / sum(raw) for w in raw],
        draw(st.lists(st.floats(1e-3, 10.0), min_size=k, max_size=k)))
    sensing = SensingModel(draw(OPEN_UNIT), draw(OPEN_UNIT), draw(st.floats(0.05, 0.95)))
    constraints = ConstraintSet(peak_power=draw(POWERS), avg_interference=draw(POWERS))
    return make_scenario(modulation=draw(st.sampled_from([(2, 1), (8, 1), (2, 2), (4, 4), (8, 8)])),
                         sensing=sensing, noise_variance=draw(st.floats(1e-4, 1.0)),
                         mixture=mixture, constraints=constraints)


class TestOptimizer:
    def _grid_best(self, scenario, constraints, resolution=2000):
        """Dense feasible-grid reference minimum of the SSS Rayleigh SEP."""
        ppk = constraints.peak_power
        budget = constraints.avg_interference / constraints.mean_gain_to_primary
        p_d = scenario.sensing.p_detect
        p = np.linspace(ppk / resolution, ppk, resolution)
        table = _branches(scenario)
        best = np.inf
        for start in range(0, resolution, 100):
            p0 = p[start:start + 100][:, None]
            sep = _sep(table, _rayleigh_term, _powers(table, p0, p[None, :]), False)
            feasible = (1 - p_d) * p0 + p_d * p[None, :] <= budget
            if feasible.any():
                # a busy-decision row of weight 0 is dropped, and P1 with it
                best = min(best, float(np.broadcast_to(sep, feasible.shape)[feasible].min()))
        return best

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(scenario=sss_scenarios(), p0=POWERS, p1=POWERS)
    def test_float_sep_equals_vector_sep_bit_for_bit(self, scenario, p0, p1):
        # math.atan for np.arctan, or (2/pi)(1/beta) for 2/pi/beta, breaks this.
        # A last-bit atan change reaches the SEP in ~1 of 1000 points, hence the sweep.
        table = _branches(scenario)
        sep = _float_sep(table)
        sweep = [(p, p1) for p in np.logspace(-6.0, 4.0, 101).tolist()]
        for q0, q1 in [(p0, p1), (p0, p0), *sweep]:
            vector = _sep(table, _rayleigh_term, _powers(table, q0, q1), False)
            assert sep(q0, q1) == float(vector)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(scenario=sss_scenarios())
    def test_feasible_and_no_worse_than_a_coarse_grid(self, scenario):
        constraints = scenario.constraints
        ppk, budget = constraints.peak_power, constraints.avg_interference
        p_d = scenario.sensing.p_detect
        out = optimize_powers_sss(scenario)
        assert 0 < out.p0 <= ppk and 0 < out.p1 <= ppk
        assert (1 - p_d) * out.p0 + p_d * out.p1 <= budget * (1 + 1e-12)
        assert out.sep <= self._grid_best(scenario, constraints, 200) * (1 + 1e-12)

    def test_inactive_constraint(self, sensing):
        constraints = ConstraintSet(peak_power=1.0, avg_interference=5.0)
        out = optimize_powers_sss(make_scenario(sensing=sensing, constraints=constraints))
        assert (out.p0, out.p1) == (1.0, 1.0)

    def test_perfect_detection_decouples(self):
        sensing = SensingModel(1.0, 0.05, 0.4)
        constraints = ConstraintSet(peak_power=P_4DB, avg_interference=0.1)
        scenario = make_scenario(sensing=sensing, constraints=constraints)
        out = optimize_powers_sss(scenario)
        assert out.p0 == P_4DB
        assert out.p1 == pytest.approx(0.1, rel=1e-12)
        assert out.sep <= self._grid_best(scenario, constraints, 600) + 1e-8

    def test_matches_dense_grid_reference(self, sensing):
        constraints = ConstraintSet(peak_power=P_4DB, avg_interference=0.1)
        scenario = make_scenario(sensing=sensing, constraints=constraints)
        out = optimize_powers_sss(scenario)
        assert out.sep <= self._grid_best(scenario, constraints, 2000) + 1e-8
        load = 0.1 * out.p0 + 0.9 * out.p1
        assert load <= 0.1 * (1 + 1e-9)

    def test_high_false_alarm_prefers_busy_power(self):
        sensing = SensingModel(0.9, 0.95, 0.4)
        constraints = ConstraintSet(peak_power=P_4DB, avg_interference=0.1)
        out = optimize_powers_sss(make_scenario(sensing=sensing, constraints=constraints))
        assert out.p1 > out.p0

    @pytest.mark.parametrize("p_detect", [1e-12, 0.5, 0.9])
    def test_budget_below_power_floor_stays_feasible(self, p_detect):
        # the budget 1e-20 is below 1e-12 of the peak: the floor must not
        # push the busy-decision power negative
        sensing = SensingModel(p_detect, 0.05, 0.4)
        constraints = ConstraintSet(peak_power=0.01, avg_interference=1e-20)
        out = optimize_powers_sss(make_scenario(sensing=sensing, constraints=constraints))
        assert 0 < out.p0 <= 0.01 and 0 < out.p1 <= 0.01
        assert (1 - p_detect) * out.p0 + p_detect * out.p1 <= 1e-20 * (1 + 1e-12)

    def test_requires_avg_constraint(self):
        with pytest.raises(ValueError, match="avg_interference"):
            optimize_powers_sss(make_scenario(constraints=ConstraintSet(peak_power=1.0)))

    def test_rejects_osa_scenario(self):
        with pytest.raises(ValueError, match="SSS"):
            optimize_powers_sss(make_scenario(Scheme.OSA, p0=1.0))

    def test_ignores_the_spec_powers(self, sensing):
        constraints = ConstraintSet(peak_power=P_4DB, avg_interference=0.1)
        a = make_scenario(p0=P_4DB, sensing=sensing, constraints=constraints)
        b = make_scenario(p0=1e-3, p1=0.7, sensing=sensing, constraints=constraints)
        assert optimize_powers_sss(a) == optimize_powers_sss(b)


class TestPeakInterference:
    def _scenario(self, scheme, modulation, ppk=P_4DB, qpk=P_4DB, sensing=None):
        constraints = ConstraintSet(peak_power=ppk, peak_interference=qpk)
        return make_scenario(scheme, modulation, p0=ppk,
                             p1=ppk if scheme is Scheme.SSS else None,
                             sensing=sensing, constraints=constraints,
                             power_policy="peak_interference")

    def test_matches_gain_average_oracle(self):
        for scheme, modulation in ((Scheme.SSS, (2, 2)), (Scheme.OSA, (8, 1))):
            scenario = self._scenario(scheme, modulation)
            assert sep_peak_interference(scenario) == pytest.approx(
                sep_peak_interference_oracle(scenario), abs=1e-6)

    def test_loose_interference_limit_reduces_to_bound(self):
        scenario = self._scenario(Scheme.SSS, (2, 2), qpk=1e9)
        fixed = make_scenario(Scheme.SSS, (2, 2), p0=P_4DB, p1=P_4DB)
        # decision-independent power: sensing-average collapses to the priors,
        # which equals the k-expanded bound by total probability
        assert sep_peak_interference(scenario) == pytest.approx(
            sep_upper_bound(fixed), rel=1e-9)

    def test_pam_bound_equals_exact_gain_average(self):
        for ppk_db, qpk_db in ((4.0, 4.0), (-20.0, -30.0), (40.0, -30.0), (40.0, 30.0),
                               (10.0, 0.0)):
            ppk, qpk = 10.0 ** (ppk_db / 10.0), 10.0 ** (qpk_db / 10.0)
            scenario = self._scenario(Scheme.SSS, (8, 1), ppk=ppk, qpk=qpk)
            bound, exact = sep_peak_interference(scenario), sep_peak_interference_exact(scenario)
            assert bound == pytest.approx(exact, abs=1e-8)
            assert bound == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_qam_bound_dominates_exact(self):
        scenario = self._scenario(Scheme.SSS, (2, 2))
        assert sep_peak_interference(scenario) > sep_peak_interference_exact(scenario)

    def test_sss_invariant_to_sensing_quality(self):
        a = self._scenario(Scheme.SSS, (2, 2), sensing=SensingModel(1.0, 0.0, 0.4))
        b = self._scenario(Scheme.SSS, (2, 2), sensing=SensingModel(0.9, 0.05, 0.4))
        assert sep_peak_interference(a) == sep_peak_interference(b)
        assert sep_peak_interference_exact(a) == sep_peak_interference_exact(b)

    def test_osa_depends_on_sensing_quality(self):
        a = self._scenario(Scheme.OSA, (2, 2), sensing=SensingModel(1.0, 0.0, 0.4))
        b = self._scenario(Scheme.OSA, (2, 2), sensing=SensingModel(0.9, 0.05, 0.4))
        assert sep_peak_interference(a) < sep_peak_interference(b)

    def test_requires_peak_constraint(self):
        scenario = make_scenario()
        with pytest.raises(ValueError):
            sep_peak_interference(scenario)


class TestMixtureVersusGaussian:
    def test_mixture_preset_has_lower_sep(self, mixture, gaussian_mix):
        for p in (0.1, 0.5, 1.0, 2.5):
            mix_sep = sep_rayleigh(make_scenario(mixture=mixture, p0=p, p1=p))
            gauss_sep = sep_rayleigh(make_scenario(mixture=gaussian_mix, p0=p, p1=p))
            assert mix_sep < gauss_sep
