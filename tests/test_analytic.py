import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import dblquad

from cogsep import analytic, experiment, mathcore
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
from cogsep.analytic import (_branches, _powers, _q_term, _rayleigh_term, _region_term,
                             _sep)
from cogsep.mathcore import QuadratureError
from cogsep.presets import figure_preset
from cogsep.sensing import ConditioningError, Occupancy

from conftest import P_4DB, make_scenario
from mp_reference import branch_table, joint


class TestScenarioValidation:
    def test_osa_rejects_busy_spec(self, sensing, mixture):
        with pytest.raises(ValueError, match="P1 = 0"):
            Scenario(Scheme.OSA, ConstellationSpec(2, 2, 1.0),
                     ConstellationSpec(2, 2, 1.0), sensing, 0.01, mixture)

    def test_sss_requires_busy_spec(self, sensing, mixture):
        with pytest.raises(ValueError, match="busy-decision"):
            Scenario(Scheme.SSS, ConstellationSpec(2, 2, 1.0), None,
                     sensing, 0.01, mixture)

    def test_noise_variance_stored_as_checked_float(self, sensing, mixture):
        def scenario(noise_variance):
            return Scenario(Scheme.OSA, ConstellationSpec(2, 2, 1.0), None,
                            sensing, noise_variance, mixture)

        assert type(scenario(np.float32(0.01)).noise_variance) is float
        for value in (0.0, math.nan, "0.01", True):
            with pytest.raises(ValueError, match="noise_variance must be positive and finite"):
                scenario(value)

    def test_grid_mismatch_rejected(self, sensing, mixture):
        with pytest.raises(ValueError, match="grid"):
            Scenario(Scheme.SSS, ConstellationSpec(2, 2, 1.0),
                     ConstellationSpec(4, 2, 1.0), sensing, 0.01, mixture)

    def test_constraints_positive(self):
        with pytest.raises(ValueError):
            ConstraintSet(peak_power=0.0)
        with pytest.raises(ValueError):
            ConstraintSet(peak_power=1.0, avg_interference=-0.5)
        finite = dict(peak_power=1.0, avg_interference=1.0, peak_interference=1.0)
        for name in finite:
            # text and bools, too, though float("2") is 2 and float(True) is 1
            for value in (math.inf, -math.inf, "2", True):
                with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                    ConstraintSet(**{**finite, name: value})

    def test_constraints_stored_as_checked_floats(self):
        constraints = ConstraintSet(peak_power=np.float32(2.5), avg_interference=np.float32(0.1),
                                    peak_interference=3)
        assert constraints == ConstraintSet(2.5, float(np.float32(0.1)), 3.0)
        assert all(type(getattr(constraints, name)) is float for name in (
            "peak_power", "avg_interference", "peak_interference"))

    @pytest.mark.parametrize("avg", [1e-320], ids=["subnormal"])
    def test_budget_must_not_underflow(self, avg):
        with pytest.raises(ValueError, match="underflows"):
            ConstraintSet(peak_power=1.0, avg_interference=avg)

    @pytest.mark.parametrize("constraints", [
        None, ConstraintSet(peak_power=1.0, avg_interference=0.1)],
        ids=["no-constraints", "average-only"])
    def test_peak_policy_needs_peak_constraint(self, sensing, mixture, constraints):
        with pytest.raises(ValueError, match="peak_interference policy"):
            Scenario(Scheme.SSS, ConstellationSpec(2, 2, 1.0),
                     ConstellationSpec(2, 2, 1.0), sensing, 0.01, mixture,
                     constraints, power_policy="peak_interference")

    @pytest.mark.parametrize("scheme,powers", [
        (Scheme.SSS, (1.0, P_4DB)), (Scheme.SSS, (P_4DB, 1.0)), (Scheme.OSA, (1.0, None))],
        ids=["sss-idle", "sss-busy", "osa"])
    def test_peak_policy_needs_the_peak_power_in_its_specs(self, scheme, powers):
        """Every form reads one table under the peak policy, so a spec power
        other than P_pk would be ignored by some and read by others."""
        constraints = ConstraintSet(peak_power=P_4DB, peak_interference=1.0)
        with pytest.raises(ValueError, match="^the peak_interference policy needs spec "
                                             "powers equal to peak_power$"):
            make_scenario(scheme, p0=powers[0], p1=powers[1], constraints=constraints,
                          power_policy="peak_interference")


# P_d and P_f at the ends of [0, 1] and next to them, on a few priors, and the
# point where Pr{idle decision} = 1 - Pr{busy decision} cancels (CHANGES.md)
WITNESS_PROBABILITIES = (0.0, 1e-12, 0.5, 1 - 1e-12, 1.0)
WITNESS_MODELS = [SensingModel(p_d, p_f, prior)
                  for p_d in WITNESS_PROBABILITIES for p_f in WITNESS_PROBABILITIES
                  for prior in (0.0, 1e-12, 0.4, 0.48165299593553446, 1 - 1e-12, 1.0)]
WITNESS_MODELS.append(SensingModel(0.9999999999998485, 0.9999999999998236, 0.48165299593553446))


def _rows(build, scenario) -> dict:
    """A branch table's rows by decision; none where OSA's idle decision is impossible."""
    try:
        return {row[3]: row for row in build(scenario).rows}
    except ConditioningError:
        return {}


@pytest.mark.parametrize("policy", ["fixed", "peak_interference"])
@pytest.mark.parametrize("scheme", [Scheme.SSS, Scheme.OSA])
def test_branch_table_matches_the_bayes_witness(scheme, policy):
    """``_branches`` entry by entry against ``mp_reference.branch_table``,
    which applies Bayes' rule in mpmath to the SensingModel's fields.

    Each entry is within 1e-15 relative. An entry that conditions on the idle
    decision gets 3 2^-53 Pr{busy} / Pr{idle} more: Pr{idle decision} is
    computed as 1 - Pr{busy decision}, whose rounding error of up to
    3 2^-53 Pr{busy} is relative to Pr{idle} (the FOUND in CHANGES.md).
    Where that bound reaches 1, it admits a computed Pr{idle decision} of 0,
    so the idle row may be missing (OSA: a ConditioningError); on this grid
    that happens only where Pr{idle decision} is ~1e-24. Every other row is
    present in both tables, in the same order, and the mixture weights and
    variances match to 1e-15.
    """
    IDLE, BUSY = Occupancy.IDLE, Occupancy.BUSY
    constraints = ConstraintSet(peak_power=P_4DB, avg_interference=0.1, peak_interference=1.0)
    collapsed = policy == "peak_interference" and scheme is Scheme.SSS
    for model in WITNESS_MODELS:
        scenario = make_scenario(scheme, (4, 2), sensing=model, constraints=constraints,
                                 power_policy=policy)
        cells = joint(model)
        p_idle = cells[IDLE, IDLE] + cells[BUSY, IDLE]
        ratio = (cells[IDLE, BUSY] + cells[BUSY, BUSY]) / p_idle if p_idle else math.inf
        got, want = _rows(_branches, scenario), _rows(branch_table, scenario)
        assert list(got) == [decision for decision in want if decision in got], model
        for decision, expected in want.items():
            rel = 1e-15 + (3 * 2.0**-53 * ratio if decision is IDLE and not collapsed else 0.0)
            if decision not in got:
                assert rel >= 1.0, (model, decision)
                continue
            for value, exact in zip(got[decision][:3], expected[:3]):
                assert abs(value - exact) <= rel * abs(exact), (model, got[decision], expected)
    scenario = make_scenario(scheme, (4, 2), constraints=constraints, power_policy=policy)
    table, witness = _branches(scenario), branch_table(scenario)
    for value, exact in zip((*table.lam, *table.variances.tolist()),
                            (*witness.lam, *witness.variances)):
        assert abs(value - exact) <= 1e-15 * abs(exact)


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
            weight, post_idle, _ = sensing.posteriors(decision)
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
            w, post_idle, post_busy = sensing.posteriors(decision)
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
        region by region in 2-D, is ``_region_term``'s E_I + E_Q - E_I E_Q
        of the per-axis error masses."""
        variance, spacing = 0.3, 1.1

        def density(u_q, u_i):
            mag2 = u_i * u_i + u_q * u_q
            return math.exp(-mag2 / (2 * variance)) / (2 * math.pi * variance)

        def region_1d(index, levels):
            """Decision interval of one axis index, centered on its own point."""
            return (-np.inf if index == 0 else -spacing / 2.0,
                    np.inf if index == levels - 1 else spacing / 2.0)

        correct = 0.0
        for n in range(4):
            lo_i, hi_i = region_1d(n, 4)
            for q in range(2):
                lo_q, hi_q = region_1d(q, 2)
                box, _ = dblquad(density, lo_i, hi_i, lo_q, hi_q,
                                 epsabs=1e-13, epsrel=1e-12)
                correct += box / 8
        mass, _ = _region_term(np.array(spacing), variance, None, (4, 2))
        assert mass == pytest.approx(1.0 - correct, abs=1e-10)

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
@pytest.mark.parametrize("magnitude", [-1.0, math.nan, math.inf, "1.0", True])
def test_magnitude_nonnegative_and_finite(function, magnitude):
    with pytest.raises(ValueError, match="magnitude must be nonnegative and finite"):
        function(make_scenario(), magnitude)


# Stand-ins for the rule's two entry points that return every integral as
# 0.5 with an error estimate of 1e-3.
_OVER_BUDGET = {
    "integrate": lambda f, breaks, rtol, atol=0.0: (0.5, 1e-3),
    "integrate_family": lambda f, breaks, rtol, atol=0.0: (np.full(len(breaks), 0.5),
                                                           np.full(len(breaks), 1e-3)),
}


@pytest.mark.parametrize("oracle,args,entry", [
    (sep_rayleigh_numeric, (), "integrate"),
    (sep_general_numeric, (0.8,), "integrate_family"),
    (sep_peak_interference_oracle, (), "integrate"),
], ids=["fading", "region", "peak"])
def test_oracle_raises_when_quadrature_exceeds_budget(monkeypatch, oracle, args, entry):
    """Every oracle refuses a result whose error estimate is over its budget;
    each is faked at the entry point of the rule it calls."""
    monkeypatch.setattr(analytic, entry, _OVER_BUDGET[entry])
    constraints = ConstraintSet(peak_power=P_4DB, peak_interference=P_4DB)
    scenario = make_scenario(constraints=constraints, power_policy="peak_interference")
    with pytest.raises(QuadratureError):
        oracle(scenario, *args)


def oracle_grid():
    """(kind, oracle, arguments) on the benchmark's kind of certification grid,
    without its jitter: 48 fading, 4 region and 18 peak cases."""
    cases = []
    for modulation in ((2, 1), (4, 1), (2, 2), (8, 2)):
        for p in 10.0 ** np.linspace(-1.0, 1.4, 6):
            cases.append(("fading", sep_rayleigh_numeric,
                          (make_scenario(Scheme.SSS, modulation, p0=p, p1=p),)))
            cases.append(("fading", sep_rayleigh_numeric,
                          (make_scenario(Scheme.OSA, modulation, p0=p),)))
    noisy = SensingModel(0.7, 0.3, 0.4)
    for modulation, scheme, sensing, power, magnitude in (
            ((2, 1), Scheme.SSS, noisy, 1.0, 1.0), ((4, 1), Scheme.OSA, None, 2.5119, 1.2),
            ((2, 2), Scheme.SSS, None, 1.0, 0.5), ((8, 2), Scheme.SSS, noisy, 2.5119, 1.0)):
        scenario = make_scenario(scheme, modulation, p0=power, p1=0.6 * power, sensing=sensing)
        cases.append(("region", sep_general_numeric, (scenario, magnitude)))
    for scheme, modulation in ((Scheme.SSS, (2, 2)), (Scheme.OSA, (8, 1))):
        for ppk in 10.0 ** (np.array([-4.0, 4.0, 12.0]) / 10.0):
            for qpk in 10.0 ** (np.array([-10.0, 0.0, 10.0]) / 10.0):
                constraints = ConstraintSet(peak_power=ppk, peak_interference=qpk)
                cases.append(("peak", sep_peak_interference_oracle, (make_scenario(
                    scheme, modulation, p0=ppk, constraints=constraints,
                    power_policy="peak_interference"),)))
    return cases


def test_oracle_rounds_on_a_fixed_grid(monkeypatch):
    """The rule's rounds, each one call of the integrand, and its integrand
    nodes, 15 per panel, per oracle on a fixed grid: first panels that
    resolve each integrand and one loop for all the tails of a region call
    take one round per fading, region and peak call, and a region call
    integrates each tail once for both axes."""
    rounds = dict.fromkeys(("fading", "region", "peak"), 0)
    nodes = dict.fromkeys(rounds, 0)
    panels = mathcore._panels
    kind = None

    def counted(f, lo, hi, member):
        rounds[kind] += 1
        nodes[kind] += 15 * len(lo)
        return panels(f, lo, hi, member)

    monkeypatch.setattr(mathcore, "_panels", counted)
    for kind, oracle, args in oracle_grid():
        oracle(*args)
    assert rounds == {"fading": 48, "region": 4, "peak": 18}
    assert nodes == {"fading": 13620, "region": 6840, "peak": 4560}


@pytest.mark.parametrize("scheme", [Scheme.SSS, Scheme.OSA], ids=["sss", "osa"])
@pytest.mark.parametrize("modulation", [(2, 1), (8, 1), (2, 2), (4, 4)],
                         ids=lambda m: f"{m[0]}x{m[1]}")
def test_fading_oracle_takes_one_round(monkeypatch, scheme, modulation):
    """The fading oracle's first panels resolve its integrand from -20 to
    120 dB in 1 dB steps, on the scenarios of the mpmath tail tests. Equal
    panels on [0, r0], without the cap s = min(r0, 2), took up to 4 rounds at
    low SNR, and 8 equal panels in place of 9 took 2 for SSS 2x2 and 4x4
    between -2 and 13 dB."""
    rounds = []
    panels = mathcore._panels

    def counted(f, lo, hi, member):
        rounds[-1] += 1
        return panels(f, lo, hi, member)

    monkeypatch.setattr(mathcore, "_panels", counted)
    for db in range(-20, 121):
        power = 10.0 ** (db / 10.0)
        rounds.append(0)
        sep_rayleigh_numeric(make_scenario(scheme, modulation, p0=power,
                                           p1=0.6 * power if scheme is Scheme.SSS else None))
    assert rounds == [1] * 141


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

    def test_peak_policy_writes_into_out(self):
        """``out`` gets the powers the call without it returns, also when it
        is the gain array itself."""
        constraints = ConstraintSet(peak_power=2.0, peak_interference=1.0)
        gains = np.array([0.0, 0.25, 0.5, 0.7, 4.0, np.inf])
        expected = peak_power_policy(constraints, gains)
        out = np.full(gains.shape, np.nan)
        assert peak_power_policy(constraints, gains, out=out) is out
        assert out.tolist() == expected.tolist()
        in_place = gains.copy()
        assert peak_power_policy(constraints, in_place, out=in_place) is in_place
        assert in_place.tolist() == expected.tolist()

    def test_peak_policy_checks_gain_before_writing_out(self):
        constraints = ConstraintSet(peak_power=2.0, peak_interference=1.0)
        gains = np.array([0.5, -1.0])
        with pytest.raises(ValueError, match="gain must be nonnegative"):
            peak_power_policy(constraints, gains, out=gains)
        assert gains.tolist() == [0.5, -1.0]

    def test_missing_constraint_errors(self):
        constraints = ConstraintSet(peak_power=2.0)
        with pytest.raises(ValueError):
            max_power_osa(constraints, 0.9)
        with pytest.raises(ValueError):
            peak_power_policy(constraints, 1.0)


OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
POWERS = st.floats(-6.0, 4.0).map(lambda e: 10.0 ** e)  # 1e-6 .. 1e4, log-uniform


# P_d at 0 and 1 and P_d = P_f = 1 (one decision) skip the search; at 1e-12
# P1 cancels on the segment; 1 - 2^-53 with P_f = 1 leaves only the busy row
# for some priors, a table of another shape.
EDGE_SENSING = st.sampled_from([(0.0, 0.5), (1.0, 0.5), (1.0, 1.0), (1e-12, 0.05),
                                (1e-12, 1e-12), (1.0 - 2.0 ** -53, 1.0)])


@st.composite
def sss_scenarios(draw, edges=False):
    """SSS scenarios over every grid shape, 1-3 mixture components, P_d and
    P_f in (0, 1), and peak power and average budget from 1e-6 to 1e4;
    ``edges`` also draws the (P_d, P_f) pairs of ``EDGE_SENSING``."""
    k = draw(st.integers(1, 3))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    mixture = GaussianMixture.from_lists(
        [w / sum(raw) for w in raw],
        draw(st.lists(st.floats(1e-3, 10.0), min_size=k, max_size=k)))
    pair = st.tuples(OPEN_UNIT, OPEN_UNIT)
    p_d, p_f = draw(st.one_of(pair, EDGE_SENSING) if edges else pair)
    sensing = SensingModel(p_d, p_f, draw(st.floats(0.05, 0.95)))
    constraints = ConstraintSet(peak_power=draw(POWERS), avg_interference=draw(POWERS))
    return make_scenario(modulation=draw(st.sampled_from([(2, 1), (8, 1), (2, 2), (4, 4), (8, 8)])),
                         sensing=sensing, noise_variance=draw(st.floats(1e-4, 1.0)),
                         mixture=mixture, constraints=constraints)


def optimize(scenario):
    """The optimizer's result for one scenario."""
    [out] = optimize_powers_sss([scenario])
    return out


def scalar_search(scenario, stop=True):
    """(P0, P1, SEP, steps) of the optimizer's scan and golden-section search
    for one point whose constraint binds (P_pk > budget, 0 < P_d < 1), as a
    plain loop: Python floats, one ``_sep`` call per golden SEP, and ``if``
    where the optimizer steps its points in lockstep with ``np.where``. The
    search stops at its first step with b - a <= 1e-13 b, or at step 90;
    with ``stop`` False it always takes 90 steps."""
    constraints, p_d = scenario.constraints, scenario.sensing.p_detect
    ppk = constraints.peak_power
    budget = constraints.avg_interference
    floor = min(ppk * 1e-12, budget / 2.0)
    p0_at_ppk = (budget - p_d * ppk) / (1.0 - p_d)
    table = _branches(scenario)

    def p1_of(p0):
        return ppk if p0 <= p0_at_ppk else min(ppk, max(floor, (budget - (1.0 - p_d) * p0) / p_d))

    def sep_of(p0):
        return float(_sep(table, _rayleigh_term, _powers(table, p0, p1_of(p0)), False))

    p0_min, p0_max = max(floor, p0_at_ppk), min(ppk, (budget - p_d * floor) / (1.0 - p_d))
    grid = np.linspace(p0_min, p0_max, 513).tolist()
    p1s = [p1_of(p0) for p0 in grid]
    values = _sep(table, _rayleigh_term, _powers(table, np.array(grid), np.array(p1s)), False)
    best = int(np.argmin(values))
    a, b = grid[max(best - 1, 0)], grid[min(best + 1, 512)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = sep_of(c), sep_of(d)
    for steps in range(1, 91):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = sep_of(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = sep_of(d)
        if stop and b - a <= 1e-13 * b:
            break
    p0 = min([(a + b) / 2.0, p0_min, p0_max], key=sep_of)
    return p0, p1_of(p0), sep_of(p0), steps


def at_powers(scenario, out):
    """The scenario carrying the optimizer's powers, as the sweep runner
    resolves it."""
    return replace(scenario, spec_idle=replace(scenario.spec_idle, power=out.p0),
                   spec_busy=replace(scenario.spec_busy, power=out.p1))


def assert_scalar_search(scenario, out):
    """The optimizer's powers are ``scalar_search``'s, and ``sep_rayleigh``
    at them is its SEP, bit for bit."""
    p0, p1, sep, _ = scalar_search(scenario)
    assert (out.p0, out.p1) == (p0, p1)
    assert sep_rayleigh(at_powers(scenario, out)).hex() == sep.hex()


def assert_near_the_90_step_search(scenario, out):
    """The optimizer's powers are within 1e-12 relative of those of a golden
    search that takes all 90 steps, and the exact SEP and its bound at them
    within 1e-14. On the segment P1 = (budget - (1 - P_d) P0) / P_d, so a
    gap in P0 reaches P1 times (1 - P_d) P0 / (P_d P1): ~1e11 for ``FLAT``,
    whose P1 is then free to ~1e-2 while its SEP moves ~1e-16."""
    p0, p1, _, _ = scalar_search(scenario, stop=False)
    p_d = scenario.sensing.p_detect
    assert out.p0 == pytest.approx(p0, rel=1e-12, abs=0.0)
    assert out.p1 == pytest.approx(p1, rel=1e-12 * max(1.0, (1.0 - p_d) * p0 / (p_d * p1)),
                                   abs=0.0)
    reference = at_powers(scenario, analytic.OptimalPowers(p0, p1))
    for sep in (sep_rayleigh, sep_upper_bound):
        assert sep(at_powers(scenario, out)) == pytest.approx(sep(reference), rel=1e-14, abs=0.0)


class TestOptimizer:
    def _grid_best(self, scenario, constraints, resolution=2000):
        """Dense feasible-grid reference minimum of the SSS Rayleigh SEP."""
        ppk = constraints.peak_power
        budget = constraints.avg_interference
        p_d = scenario.sensing.p_detect
        p = np.linspace(ppk / resolution, ppk, resolution)
        table = _branches(scenario)
        best = np.inf
        for start in range(0, resolution, 100):
            p0 = p[start:start + 100][:, None]
            sep = _sep(table, _rayleigh_term,
                       _powers(table, *np.broadcast_arrays(p0, p[None, :])), False)
            feasible = (1 - p_d) * p0 + p_d * p[None, :] <= budget
            if feasible.any():
                # a busy-decision row of weight 0 is dropped, and P1 with it
                best = min(best, float(np.broadcast_to(sep, feasible.shape)[feasible].min()))
        return best

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(batch=st.lists(sss_scenarios(edges=True), min_size=1, max_size=8))
    def test_batch_results_equal_one_scenario_calls(self, batch):
        # the golden steps run in lockstep over each batch; every result must
        # still be its own search's, bit for bit, and keep its place
        out = optimize_powers_sss(batch)
        assert out == [optimize(scenario) for scenario in batch]
        assert optimize_powers_sss(batch[::-1]) == out[::-1]
        for scenario, result in zip(batch, out):
            constraints, p_d = scenario.constraints, scenario.sensing.p_detect
            if constraints.peak_power > constraints.avg_interference and 0.0 < p_d < 1.0:
                assert_scalar_search(scenario, result)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(scenario=sss_scenarios())
    def test_feasible_and_no_worse_than_a_coarse_grid(self, scenario):
        constraints = scenario.constraints
        ppk, budget = constraints.peak_power, constraints.avg_interference
        p_d = scenario.sensing.p_detect
        out = optimize(scenario)
        assert 0 < out.p0 <= ppk and 0 < out.p1 <= ppk
        assert (1 - p_d) * out.p0 + p_d * out.p1 <= budget * (1 + 1e-12)
        sep = sep_rayleigh(at_powers(scenario, out))
        assert sep <= self._grid_best(scenario, constraints, 200) * (1 + 1e-12)

    def test_inactive_constraint(self, sensing):
        constraints = ConstraintSet(peak_power=1.0, avg_interference=5.0)
        out = optimize(make_scenario(sensing=sensing, constraints=constraints))
        assert (out.p0, out.p1) == (1.0, 1.0)

    def test_perfect_detection_decouples(self):
        sensing = SensingModel(1.0, 0.05, 0.4)
        constraints = ConstraintSet(peak_power=P_4DB, avg_interference=0.1)
        scenario = make_scenario(sensing=sensing, constraints=constraints)
        out = optimize(scenario)
        assert out.p0 == P_4DB
        assert out.p1 == pytest.approx(0.1, rel=1e-12)
        sep = sep_rayleigh(at_powers(scenario, out))
        assert sep <= self._grid_best(scenario, constraints, 600) + 1e-8

    def test_matches_dense_grid_reference(self, sensing):
        constraints = ConstraintSet(peak_power=P_4DB, avg_interference=0.1)
        scenario = make_scenario(sensing=sensing, constraints=constraints)
        out = optimize(scenario)
        sep = sep_rayleigh(at_powers(scenario, out))
        assert sep <= self._grid_best(scenario, constraints, 2000) + 1e-8
        load = 0.1 * out.p0 + 0.9 * out.p1
        assert load <= 0.1 * (1 + 1e-9)

    def test_high_false_alarm_prefers_busy_power(self):
        sensing = SensingModel(0.9, 0.95, 0.4)
        constraints = ConstraintSet(peak_power=P_4DB, avg_interference=0.1)
        out = optimize(make_scenario(sensing=sensing, constraints=constraints))
        assert out.p1 > out.p0

    @pytest.mark.parametrize("p_detect", [1e-12, 0.5, 0.9])
    def test_budget_below_power_floor_stays_feasible(self, p_detect):
        # the budget 1e-20 is below 1e-12 of the peak: the floor must not
        # push the busy-decision power negative
        sensing = SensingModel(p_detect, 0.05, 0.4)
        constraints = ConstraintSet(peak_power=0.01, avg_interference=1e-20)
        out = optimize(make_scenario(sensing=sensing, constraints=constraints))
        assert 0 < out.p0 <= 0.01 and 0 < out.p1 <= 0.01
        assert (1 - p_detect) * out.p0 + p_detect * out.p1 <= 1e-20 * (1 + 1e-12)

    def test_requires_avg_constraint(self):
        with pytest.raises(ValueError, match="avg_interference"):
            optimize_powers_sss([make_scenario(constraints=ConstraintSet(peak_power=1.0))])

    def test_rejects_osa_scenario(self):
        with pytest.raises(ValueError, match="SSS"):
            optimize_powers_sss([make_scenario(Scheme.OSA, p0=1.0)])

    def test_rejects_peak_policy_scenario(self):
        # its table is the peak policy's one collapsed row, which no P0/P1 split moves
        constraints = ConstraintSet(peak_power=P_4DB, avg_interference=0.1,
                                    peak_interference=1.0)
        scenario = make_scenario(constraints=constraints, power_policy="peak_interference")
        with pytest.raises(ValueError, match="^the power optimizer needs an SSS scenario "
                                             "under the fixed power policy$"):
            optimize_powers_sss([scenario])

    def test_ignores_the_spec_powers(self, sensing):
        constraints = ConstraintSet(peak_power=P_4DB, avg_interference=0.1)
        a = make_scenario(p0=P_4DB, sensing=sensing, constraints=constraints)
        b = make_scenario(p0=1e-3, p1=0.7, sensing=sensing, constraints=constraints)
        first, second = optimize_powers_sss([a, b])
        assert first == second


def active_segment(scenario):
    """(table, segment, p0_min, p0_max) of a point whose constraint binds, as
    the optimizer builds them, Python floats; None at a corner."""
    constraints, p_d = scenario.constraints, scenario.sensing.p_detect
    ppk = constraints.peak_power
    budget = constraints.avg_interference
    if ppk <= budget or p_d in (0.0, 1.0):
        return None
    floor = min(ppk * 1e-12, budget / 2.0)
    p0_at_ppk = (budget - p_d * ppk) / (1.0 - p_d)
    return (_branches(scenario), (ppk, budget, p_d, floor, p0_at_ppk), max(floor, p0_at_ppk),
            min(ppk, (budget - p_d * floor) / (1.0 - p_d)))


def binding(scenario):
    """The scenario with its peak power and budget ordered so that the
    average limit binds: the larger is the peak power."""
    low, high = sorted((scenario.constraints.peak_power, scenario.constraints.avg_interference))
    return replace(scenario, constraints=ConstraintSet(
        peak_power=high if high > low else 2.0 * low, avg_interference=low))


def degenerate(p_d=0.9, p_f=0.05, modulation=(2, 2), peak_power=P_4DB, budget=0.1):
    return make_scenario(modulation=modulation, sensing=SensingModel(p_d, p_f, 0.4),
                         constraints=ConstraintSet(peak_power=peak_power, avg_interference=budget))


# at P_d = P_f = 1e-12 both powers barely move the SEP along the segment, so
# its window cannot stand for the scan
FLAT = degenerate(1e-12, 1e-12)
# as flat, and here the window's least is not the scan's: index 250 against
# 259, which the optimizer's third, full-scan call corrects
SCANNED = degenerate(1e-12, 1e-12, peak_power=1.0, budget=0.5)
# the least inside the segment (P_d = P_f, PAM) and at either end of it (P_d
# near 0 and 1, a budget just below P_pk): each window stands for the scan
WINDOWED = (degenerate(0.5, 0.5), degenerate(modulation=(8, 1)), degenerate(1e-9),
            degenerate(1.0 - 1e-9), degenerate(peak_power=1.0, budget=1.0 - 1e-9))
# P_d = 1e-6, P_f = 0.9 and a budget of 1e-6 P_pk: the least is P0's floor,
# 1e-13, and the first bracket is ~2 000 times wider than it, so the search
# takes 78 steps, the most of any input met
CAPPED = degenerate(1e-6, 0.9, peak_power=0.1, budget=1e-7)


def counting_sep(monkeypatch):
    """Record the shape of every ``_sep`` call's argument between its rows
    and its points: (33,) for a scan call, (513,) for a full scan, (2,) for
    the first probes, (3,) for a pair of golden steps (the first step's
    probe and both the second step may take) and (3,) for the final choice.
    The step that stops the search's last point makes no call, so a search
    of n steps makes n // 2 pair calls."""
    calls = []
    sep = analytic._sep

    def counted(table, term, x, *args):
        calls.append(np.shape(x)[1:-1])
        return sep(table, term, x, *args)

    monkeypatch.setattr(analytic, "_sep", counted)
    return calls


class TestScanAndStop:
    """The optimizer's scan finds the 513-point scan's first least, by two
    stacked calls where every window stands and by a third over the full scan
    where one does not; each point's golden search stops at its first bracket
    within 1e-13 relative, or at step 90, within 1e-12 of the 90-step
    result."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(scenario=sss_scenarios(edges=True).map(binding))
    @example(scenario=FLAT)
    @example(scenario=SCANNED)
    @example(scenario=WINDOWED[0])
    @example(scenario=WINDOWED[1])
    @example(scenario=WINDOWED[2])
    @example(scenario=WINDOWED[3])
    @example(scenario=WINDOWED[4])
    def test_bracket_index_is_the_full_scans_argmin(self, scenario):
        segment = active_segment(scenario)
        assume(segment is not None)  # P_d in {0, 1}: no scan
        table, segment, p0_min, p0_max = segment
        grid = np.linspace(p0_min, p0_max, 513)
        scan = analytic._scan_p0(np.arange(513.0), p0_min, p0_max)
        assert grid.tobytes() == scan.tobytes()
        full = _sep(table, _rayleigh_term, _powers(table, grid, analytic._p1(grid, *segment)),
                    False)
        # two points, one table each: the cache gives equal inputs one table,
        # so the second is a copy, and _stack stacks rather than passing one through
        stacked = analytic._stack([table, table._replace()])
        best = analytic._scan_best(stacked, tuple(np.array([x, x]) for x in segment),
                                   np.array([p0_min, p0_min]), np.array([p0_max, p0_max]))
        assert best.tolist() == [np.argmin(full)] * 2
        # the optimizer's result is the scalar search's, full scan or not
        assert_scalar_search(scenario, optimize(scenario))

    def test_flat_point_is_scanned_in_full_in_its_run(self, monkeypatch):
        # one stacked run: the windowed points alone take the two scan calls;
        # with the flat point a third call scans all 513 points of each, and
        # every point still gets its full scan's first least
        segments = [active_segment(scenario) for scenario in (FLAT, *WINDOWED)]
        least = []
        for table, segment, p0_min, p0_max in segments:
            grid = np.linspace(p0_min, p0_max, 513)
            least.append(np.argmin(_sep(table, _rayleigh_term,
                                        _powers(table, grid, analytic._p1(grid, *segment)),
                                        False)))
        calls = counting_sep(monkeypatch)
        for members, scans in ((segments[1:], [(33,), (33,)]),
                               (segments, [(33,), (33,), (513,)])):
            tables, run, p0_min, p0_max = zip(*members)
            calls.clear()
            best = analytic._scan_best(analytic._stack(tables),
                                       tuple(map(np.array, zip(*run))),
                                       np.array(p0_min), np.array(p0_max))
            assert calls == scans
            assert best.tolist() == least[-len(members):]
        out = optimize_powers_sss([FLAT, *WINDOWED])
        for scenario, result in zip((FLAT, *WINDOWED), out):
            assert_scalar_search(scenario, result)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(scenario=sss_scenarios(edges=True).map(binding))
    def test_sep_changes_direction_at_most_once_along_the_segment(self, scenario):
        # ROADMAP item 1's unimodality, which the scan window and the golden
        # search assume: down to the least, then up, on a 3 000-point grid,
        # up to a rounding noise of a few ulp of 1 (from 1 - 1/beta)
        segment = active_segment(scenario)
        assume(segment is not None)
        table, segment, p0_min, p0_max = segment
        grid = np.linspace(p0_min, p0_max, 3000)
        sep = _sep(table, _rayleigh_term, _powers(table, grid, analytic._p1(grid, *segment)),
                   False)
        least = int(np.argmin(sep))
        noise = 8 * np.finfo(float).eps
        assert np.all(sep[:least + 1] <= np.minimum.accumulate(sep[:least + 1]) + noise)
        assert np.all(sep[least:] >= np.maximum.accumulate(sep[least:]) - noise)

    @pytest.mark.parametrize("preset,steps", [("fig1", 54), ("fig3", 53), ("fig4", 61)],
                             ids=["fig1", "fig3", "fig4"])
    def test_presets_stop_early_with_the_90_step_result(self, monkeypatch, preset, steps):
        scenarios = experiment._build(figure_preset(preset))[0]
        calls = counting_sep(monkeypatch)
        out = optimize_powers_sss(scenarios)
        # one stacked run: the scan's two calls, one for the first probes, one
        # per pair of steps until the last point stops and one for the final
        # choice; none for a corner point
        assert calls == [(33,), (33,), (2,)] + [(3,)] * (steps // 2) + [(3,)]
        monkeypatch.undo()
        searched = [(scenario, result) for scenario, result in zip(scenarios, out)
                    if active_segment(scenario) is not None]
        assert max(scalar_search(scenario)[3] for scenario, _ in searched) == steps
        for scenario, result in searched:
            assert_scalar_search(scenario, result)
            assert_near_the_90_step_search(scenario, result)

    @pytest.mark.parametrize("scenario", [FLAT, *WINDOWED, CAPPED],
                             ids=["flat", *(f"windowed-{i}" for i in range(5)), "capped"])
    def test_search_is_within_1e_12_of_the_90_step_search(self, scenario):
        assert_near_the_90_step_search(scenario, optimize(scenario))

    # WINDOWED[0] stops at step 53, the first step of pair 27, and WINDOWED[3]
    # at step 50, the second step of pair 25. No input met reaches the cap
    # (CAPPED takes 78 steps), so the cap case closes no bracket: a tolerance
    # of 0 needs a == b, which WINDOWED[1]'s search, whose least is inside
    # the segment, does not reach in 90 steps.
    @pytest.mark.parametrize("scenario,steps,tolerance", [(WINDOWED[0], 53, 1e-13),
                                                          (WINDOWED[3], 50, 1e-13),
                                                          (WINDOWED[1], 90, 0.0)],
                             ids=["first-step", "second-step", "cap"])
    def test_search_stops_on_either_step_of_a_pair(self, monkeypatch, scenario, steps,
                                                   tolerance):
        monkeypatch.setattr(analytic, "_BRACKET_TOL", tolerance)
        calls = counting_sep(monkeypatch)
        out = optimize(scenario)
        assert calls == [(33,), (33,), (2,)] + [(3,)] * (steps // 2) + [(3,)]
        monkeypatch.undo()
        p0, p1, _, taken = scalar_search(scenario, stop=tolerance > 0.0)
        assert taken == steps and (out.p0, out.p1) == (p0, p1)

    def test_corner_sweep_makes_no_sep_call(self, monkeypatch):
        """At Q_avg >= P_pk (fig1's P_pk is 4 dB) both powers sit at the peak:
        a 10 000-point sweep of such points evaluates no SEP."""
        config = figure_preset("fig1")
        scenarios = [experiment._scenario(config, "q_avg_db", 4.0 + 0.0026 * i)
                     for i in range(10_000)]
        calls = counting_sep(monkeypatch)
        out = optimize_powers_sss(scenarios)
        assert calls == []
        ppk = scenarios[0].constraints.peak_power
        assert set(out) == {analytic.OptimalPowers(ppk, ppk)}

    def test_long_sweep_is_scanned_in_slices(self, monkeypatch):
        """A 10 000-point fig1-style sweep is scanned ``_STACK_POINTS`` points
        at a time, so the scan's temporaries do not grow with the sweep."""
        config = figure_preset("fig1")
        scenarios = [experiment._scenario(config, "q_avg_db", -20.0 + 0.0026 * i)
                     for i in range(10_000)]
        sizes = []
        scan = analytic._scan_best

        def counted(table, segment, p0_min, p0_max):
            sizes.append(len(p0_min))
            return scan(table, segment, p0_min, p0_max)

        monkeypatch.setattr(analytic, "_scan_best", counted)
        out = optimize_powers_sss(scenarios)
        searched = sum(active_segment(scenario) is not None for scenario in scenarios)
        slices, rest = divmod(searched, analytic._STACK_POINTS)
        assert slices > 30 and sizes == [analytic._STACK_POINTS] * slices + [rest]
        for index in (0, analytic._STACK_POINTS - 1, analytic._STACK_POINTS, searched - 1, 9_999):
            assert out[index] == optimize(scenarios[index])


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
            # P_pk = -30 dB, Q_pk = 0 dB: b1 = 1000 lies past e^{-y}'s underflow
            # at 745, so each gain average is its head term alone
            capped = self._scenario(scheme, modulation, ppk=10.0 ** -3.0, qpk=1.0)
            assert sep_peak_interference_oracle(capped) == sep_peak_interference(capped)
            assert (analytic._gain_average(capped, bound=False)
                    == sep_peak_interference_exact(capped))

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

    @pytest.mark.parametrize("form", [sep_peak_interference, sep_peak_interference_oracle,
                                      sep_peak_interference_exact],
                             ids=["bound", "oracle", "exact"])
    def test_requires_peak_constraint(self, form):
        scenario = make_scenario()
        message = "^scenario needs the peak_interference power policy$"
        with pytest.raises(ValueError, match=message):
            form(scenario)
        if form is not sep_peak_interference_oracle:  # the closed forms also take a sweep
            with pytest.raises(ValueError, match=message):
                form([scenario, scenario])

    @pytest.mark.parametrize("form,args", [
        (sep_rayleigh, ()), (sep_upper_bound, ()), (sep_conditional, (0.8,)),
        (sep_rayleigh_numeric, ())], ids=["rayleigh", "upper-bound", "conditional", "numeric"])
    def test_sss_fixed_forms_collapse_under_the_peak_policy(self, form, args):
        """Under the peak policy an SSS Scenario's table is the priors' one
        row, so the fixed-power forms do not depend on (P_d, P_f), bit for
        bit, and match the same Scenario under the fixed policy, whose two
        decision rows carry P0 = P1 = P_pk, to rounding."""
        values = []
        for sensing in (SensingModel(1.0, 0.0, 0.4), SensingModel(0.9, 0.05, 0.4),
                        SensingModel(0.3, 0.6, 0.4), SensingModel(1e-12, 1 - 1e-12, 0.4)):
            scenario = self._scenario(Scheme.SSS, (4, 2), sensing=sensing)
            values.append(form(scenario, *args))
            fixed = form(replace(scenario, power_policy="fixed"), *args)
            assert values[-1] == pytest.approx(fixed, rel=1e-14, abs=0.0)
        assert len({value.hex() for value in values}) == 1


class TestMixtureVersusGaussian:
    def test_mixture_preset_has_lower_sep(self, mixture, gaussian_mix):
        for p in (0.1, 0.5, 1.0, 2.5):
            mix_sep = sep_rayleigh(make_scenario(mixture=mixture, p0=p, p1=p))
            gauss_sep = sep_rayleigh(make_scenario(mixture=gaussian_mix, p0=p, p1=p))
            assert mix_sep < gauss_sep
