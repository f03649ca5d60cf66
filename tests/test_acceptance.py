"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see per-criterion
summaries and timings.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from cogsep import (
    ConstellationSpec,
    ConstraintSet,
    GaussianMixture,
    Occupancy,
    Scheme,
    SensingModel,
    detect_threshold,
    map_detect_numeric,
    sep_conditional,
    sep_general_numeric,
    sep_peak_interference,
    sep_peak_interference_oracle,
    sep_rayleigh,
    sep_rayleigh_numeric,
    sep_upper_bound,
)
from cogsep.experiment import run_experiment
from cogsep.presets import PRESET_NAMES, default_sensing, figure_preset, default_mixture

from conftest import P_4DB, make_scenario

MODULATIONS = [(2, 1), (4, 1), (8, 1), (2, 2), (8, 2)]


def _report(criterion: int, message: str, started: float) -> None:
    print(f"[criterion {criterion}] PASS: {message} ({time.time() - started:.1f}s)")


def _thin(config, factor: int, trials: int):
    sweep = replace(config.sweep, step=config.sweep.step * factor)
    return replace(config, sweep=sweep, trials=trials,
                   engines=("analytic", "monte_carlo"))


def test_criterion_1_detector_equivalence(sensing, mixture):
    started = time.time()
    n_samples = 100_000
    checked = 0
    for mi, mq in MODULATIONS:
        spec_idle = ConstellationSpec(mi, mq, 1.7)
        spec_busy = ConstellationSpec(mi, mq, 0.45)
        rng = np.random.default_rng(1000 + mi * 10 + mq)
        z = rng.normal(0, 1.6, n_samples) + 1j * rng.normal(0, 1.6, n_samples)
        mag = rng.rayleigh(math.sqrt(0.5), n_samples) + 1e-9
        for decision in (Occupancy.IDLE, Occupancy.BUSY):
            spec = spec_busy if decision == Occupancy.BUSY else spec_idle
            n1, q1 = detect_threshold(spec, z, mag)
            n2, q2 = map_detect_numeric(spec_idle, spec_busy, z, mag, decision,
                                        sensing, 0.01, mixture)
            disagreements = int(np.sum((n1 != n2) | (q1 != q2)))
            assert disagreements == 0, (
                f"{mi}x{mq} decision={decision.name}: "
                f"{disagreements}/{n_samples} disagreements")
            checked += n_samples
    assert time.time() - started < 60.0
    _report(1, f"threshold == MAP on {checked:,} samples "
               f"across {len(MODULATIONS)} modulations x 2 decisions", started)


def test_criterion_2_closed_forms_match_integral_oracles():
    started = time.time()
    powers = np.logspace(-1.0, 1.4, 50)
    worst_fading = 0.0
    for mi, mq in MODULATIONS:
        for p in powers:
            sss = make_scenario(Scheme.SSS, (mi, mq), p0=float(p), p1=float(p))
            osa = make_scenario(Scheme.OSA, (mi, mq), p0=float(p))
            for scenario in (sss, osa):
                gap = abs(sep_rayleigh(scenario) - sep_rayleigh_numeric(scenario))
                worst_fading = max(worst_fading, gap)
    assert worst_fading <= 1e-6

    # conditional SEP vs decision-region quadrature at 20 operating points
    noisy = SensingModel(0.7, 0.3, 0.4)
    points = []
    for modulation, combos in (
        ((2, 1), [(0.4, 0.6), (1.0, 1.0), (2.5119, 0.3), (8.0, 1.6), (0.1, 2.0),
                  (1.0, 0.0)]),
        ((4, 1), [(1.0, 0.8), (2.5119, 1.2), (0.5, 0.2), (5.0, 0.7)]),
        ((2, 2), [(1.0, 1.0), (2.5119, 0.5), (0.3, 1.5), (10.0, 0.9),
                  (1.0, 0.05), (4.0, 2.0)]),
        ((8, 2), [(2.5119, 1.0), (1.0, 0.4), (6.0, 1.3), (0.8, 0.1)]),
    ):
        for power, magnitude in combos:
            points.append((modulation, power, magnitude))
    assert len(points) == 20

    worst_region = worst_region_rel = 0.0
    for index, (modulation, power, magnitude) in enumerate(points):
        scheme = Scheme.OSA if index % 5 == 4 else Scheme.SSS
        sensing_model = noisy if index % 3 == 0 else default_sensing()
        scenario = make_scenario(
            scheme, modulation, p0=power,
            p1=0.6 * power if scheme is Scheme.SSS else None,
            sensing=sensing_model)
        closed = sep_conditional(scenario, magnitude)
        gap = abs(closed - sep_general_numeric(scenario, magnitude))
        worst_region = max(worst_region, gap)
        worst_region_rel = max(worst_region_rel, gap / closed)
    assert worst_region <= 1e-8
    assert worst_region_rel <= 1e-9

    assert time.time() - started < 300.0
    _report(2, f"Rayleigh closed forms within {worst_fading:.2e} of the fading "
               f"oracle (500 points); conditional SEP within {worst_region:.2e} "
               f"({worst_region_rel:.2e} relative) of region quadrature (20 points)",
            started)


def test_criterion_3_monte_carlo_validates_every_preset():
    """Every thinned preset point (50 in all) within 3 binomial sigma of analytic.

    The estimator is stratified over the (state, decision) cells, so its
    variance is a fraction r of the binomial one the pull divides by; r is
    0.54-0.90 at these points (1e6 trials each, preset seed). A correct
    engine therefore fails one point with probability 2*Phi(-3/sqrt(r)), at
    most 1.6e-3, and this test with probability about 3.8% (12.6% if r were
    1). A failure reports the pull; it is not a reason to re-seed or to
    shrink the data.
    """
    started = time.time()
    summary = []
    for name in PRESET_NAMES:
        config = _thin(figure_preset(name), factor=4, trials=1_000_000)
        rows = run_experiment(config)
        worst = 0.0
        for row in rows:
            p = row.sep_analytic
            sigma = math.sqrt(p * (1 - p) / row.trials)
            pull = abs(row.sep_mc - p) / sigma
            worst = max(worst, pull)
            assert abs(row.sep_mc - p) <= 3 * sigma, (
                f"{name} at sweep={row.sweep_value}: MC {row.sep_mc} vs "
                f"analytic {p} ({pull:.2f} sigma)")
        summary.append(f"{name}:{len(rows)}pts,max {worst:.2f} sigma")
    assert time.time() - started < 600.0
    _report(3, "MC within 3 sigma of analytic at >=1e6 trials/point "
               f"[{', '.join(summary)}]", started)


def test_criterion_4_pam_bound_exactness():
    started = time.time()
    powers = np.logspace(-1.0, 1.2, 10)
    for mi in (2, 4, 8):
        for scheme in (Scheme.SSS, Scheme.OSA):
            for p in powers:
                scenario = make_scenario(
                    scheme, (mi, 1), p0=float(p),
                    p1=0.5 * float(p) if scheme is Scheme.SSS else None)
                assert abs(sep_upper_bound(scenario) - sep_rayleigh(scenario)) <= 1e-12
    for modulation in ((2, 2), (8, 2), (4, 4)):
        for p in powers:
            scenario = make_scenario(Scheme.SSS, modulation, p0=float(p), p1=float(p))
            assert sep_upper_bound(scenario) >= sep_rayleigh(scenario)
    _report(4, "bound == exact to 1e-12 for PAM (60 points); "
               "bound >= exact for QAM (30 points)", started)


def test_criterion_5_peak_interference_bound_matches_oracle():
    started = time.time()
    ppk_grid = [-4.0, 0.0, 4.0, 8.0, 12.0]
    qpk_grid = [-10.0, -4.0, 0.0, 4.0, 10.0]
    worst = 0.0
    checked = 0
    for scheme, modulation in ((Scheme.SSS, (2, 2)), (Scheme.OSA, (8, 1))):
        for ppk_db in ppk_grid:
            for qpk_db in qpk_grid:
                ppk = 10 ** (ppk_db / 10)
                constraints = ConstraintSet(peak_power=ppk,
                                            peak_interference=10 ** (qpk_db / 10))
                scenario = make_scenario(
                    scheme, modulation, p0=ppk,
                    p1=ppk if scheme is Scheme.SSS else None,
                    constraints=constraints, power_policy="peak_interference")
                gap = abs(sep_peak_interference(scenario)
                          - sep_peak_interference_oracle(scenario))
                worst = max(worst, gap)
                checked += 1
    assert checked == 50
    assert worst <= 1e-6
    _report(5, f"closed-form peak bound within {worst:.2e} of the gain-average "
               "oracle on a 50-point grid", started)


def _analytic_rows(config):
    return run_experiment(replace(config, engines=("analytic", "bound")))


class TestCriterion6QualitativeShapes:
    def test_fig1_fig2_monotone_with_power_saturation(self):
        started = time.time()
        for name in ("fig1", "fig2"):
            rows = _analytic_rows(figure_preset(name))
            seps = [r.sep_analytic for r in rows]
            assert all(a >= b - 1e-15 for a, b in zip(seps, seps[1:]))
            p0s = [r.p0 for r in rows]
            assert all(a <= b + 1e-12 for a, b in zip(p0s, p0s[1:]))
            assert p0s[-1] == pytest.approx(P_4DB, rel=1e-12)
        # OSA saturates fully: SEP flat once P0 hits the cap
        rows = _analytic_rows(figure_preset("fig2"))
        capped = [r.sep_analytic for r in rows if r.p0 >= P_4DB * (1 - 1e-12)]
        assert len(capped) >= 2
        assert max(capped) - min(capped) < 1e-12
        _report(6, "fig1/fig2 SEP nonincreasing in Q_avg, P0 saturates at P_pk",
                started)

    def test_fig3_sep_decreases_with_detection_probability(self):
        started = time.time()
        for config in (figure_preset("fig3"),
                       replace(figure_preset("fig3"), scheme=Scheme.OSA)):
            rows = _analytic_rows(config)
            seps = [r.sep_analytic for r in rows]
            assert all(a >= b - 1e-15 for a, b in zip(seps, seps[1:]))
            assert seps[-1] < seps[0]
        _report(6, "fig3 SEP decreasing in P_d for SSS and OSA", started)

    def test_fig4_false_alarm_turnover(self):
        started = time.time()
        osa_rows = _analytic_rows(replace(figure_preset("fig4"), scheme=Scheme.OSA))
        osa_seps = [r.sep_analytic for r in osa_rows]
        assert all(a <= b + 1e-15 for a, b in zip(osa_seps, osa_seps[1:]))
        assert osa_seps[-1] > osa_seps[0]

        sss_rows = _analytic_rows(figure_preset("fig4"))
        seps = [r.sep_analytic for r in sss_rows]
        values = [r.sweep_value for r in sss_rows]
        peak_at = values[int(np.argmax(seps))]
        assert 0.8 <= peak_at <= 0.95  # turnover near P_f ~ 0.9
        assert seps[-1] < max(seps)
        by_value = {round(v, 3): r for v, r in zip(values, sss_rows)}
        assert by_value[0.95].p1 > by_value[0.95].p0
        _report(6, f"fig4 OSA SEP increasing in P_f; SSS turnover at "
                   f"P_f={peak_at:g} with P1* > P0*", started)

    def test_fig5_fig7_fig8_sensing_invariance_under_peak_policy(self):
        started = time.time()
        # fig5: perfect vs imperfect sensing give identical columns
        base = figure_preset("fig5")
        perfect = replace(base, p_detect=1.0, p_false_alarm=0.0)
        rows_a = _analytic_rows(base)
        rows_b = _analytic_rows(perfect)
        for a, b in zip(rows_a, rows_b):
            assert a.sep_analytic == b.sep_analytic
            assert a.sep_bound == b.sep_bound
        # fig7/fig8 sweep the sensing probabilities themselves: flat columns
        for name in ("fig7", "fig8"):
            rows = _analytic_rows(figure_preset(name))
            assert len({r.sep_analytic for r in rows}) == 1
            assert len({r.sep_bound for r in rows}) == 1
        _report(6, "fig5/fig7/fig8 SSS results invariant to (P_d, P_f) under "
                   "the peak-interference policy", started)

    def test_mixture_beats_equal_variance_gaussian_everywhere(self):
        started = time.time()
        for name in ("fig1", "fig2"):
            config = figure_preset(name)
            gaussian = replace(config, mixture_weights=(1.0,),
                               mixture_variances=(0.5,))
            for mix_row, gauss_row in zip(_analytic_rows(config),
                                          _analytic_rows(gaussian)):
                assert mix_row.sep_analytic < gauss_row.sep_analytic
        _report(6, "mixture-preset SEP < equal-variance Gaussian SEP at every "
                   "fig1/fig2 sweep point", started)


def test_criterion_7_byte_identical_reruns(tmp_path):
    started = time.time()
    config = _thin(figure_preset("fig1"), factor=5, trials=40_000)
    blobs = []
    for label, workers in (("a", 1), ("b", 1), ("c", 3)):
        out = tmp_path / f"{label}.csv"
        run_experiment(replace(config, output_path=str(out),
                               json_path=str(tmp_path / f"{label}.json")),
                       workers=workers)
        blobs.append((out.read_bytes(),
                      (tmp_path / f"{label}.json").read_bytes()))
    assert blobs[0] == blobs[1] == blobs[2]
    _report(7, "CSV and JSON byte-identical across reruns and worker counts",
            started)
