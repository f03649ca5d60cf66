"""The peak policy's exact gain average, a fixed exp-sinh rule, and its oracles.

``sep_peak_interference_exact`` evaluates the tail of the gain average by one
149-node exp-sinh rule. It is held here to a 40-digit mpmath integral
(``mp_reference.peak_exact``) and to the quadrature oracle ``_gain_average``,
and the sweep engines are shown not to reach any quadrature at all.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cogsep import analytic, mathcore
from cogsep import (ConstraintSet, Scheme, craig_q_numeric, gaussian_q, sep_peak_interference,
                    sep_peak_interference_exact, sep_rayleigh_numeric)
from cogsep.analytic import _gain_average
from cogsep.experiment import _scenario, run_experiment
from cogsep.presets import figure_preset

from conftest import make_scenario
from mp_reference import peak_exact

PEAK_PRESETS = ("fig5", "fig6", "fig7", "fig8")
SCHEMES = {"sss-2x2": (Scheme.SSS, (2, 2)), "sss-8x8": (Scheme.SSS, (8, 8)),
           "osa-8x1": (Scheme.OSA, (8, 1))}
REL_TOL = 1e-12


def peak_scenario(case: str, ppk_db: float, qpk_db: float):
    scheme, modulation = SCHEMES[case]
    ppk, qpk = 10.0 ** (ppk_db / 10.0), 10.0 ** (qpk_db / 10.0)
    return make_scenario(scheme, modulation, p0=ppk,
                         p1=ppk if scheme is Scheme.SSS else None,
                         constraints=ConstraintSet(peak_power=ppk, peak_interference=qpk),
                         power_policy="peak_interference")


def preset_scenarios(name: str, every: int = 1):
    config = figure_preset(name)
    axis = config.sweep.axis
    return [_scenario(replace(config, **{axis: value}), axis)
            for value in config.sweep.values()[::every]]


# A thinned (P_pk dB, Q_pk dB) grid over -20..40 x -30..30. The corner
# P_pk = 40, Q_pk = -30 puts the integrand's branch point 2.4e-3 left of the
# interval's start for 8-PAM, where a 128-node Gauss-Laguerre rule is off by
# 8.8e-4 relative.
THINNED_GRID = [
    ("sss-2x2", 40.0, 30.0), ("sss-2x2", 10.0, -10.0), ("sss-2x2", -20.0, -30.0),
    ("sss-2x2", 25.0, 0.0),
    ("sss-8x8", 40.0, -30.0), ("sss-8x8", -5.0, 10.0), ("sss-8x8", 15.0, 20.0),
    ("sss-8x8", -20.0, 30.0),
    ("osa-8x1", 40.0, -30.0), ("osa-8x1", 0.0, 0.0), ("osa-8x1", 30.0, 10.0),
    ("osa-8x1", -10.0, -20.0),
]


def test_rule_matches_mpmath():
    """Within 1e-12 relative of 40-digit mpmath on preset points and the grid.

    fig5/fig6 give their first and last points. After the collapse every
    fig7 and fig8 point is one SSS scenario at P_pk = 4 dB, Q_pk = 0 dB, so
    fig7's first point stands for all of them. The full 13 x 7 x 3 grid
    (5 dB x 10 dB steps) was checked once outside the suite.
    """
    scenarios = [peak_scenario(*point) for point in THINNED_GRID]
    for name, every in (("fig5", 20), ("fig6", 20), ("fig7", 100)):
        scenarios.extend(preset_scenarios(name, every))
    assert len(scenarios) == 17
    for scenario in scenarios:
        expected = peak_exact(scenario)
        got = sep_peak_interference_exact(scenario)
        assert abs(got - expected) <= REL_TOL * abs(expected), (
            scenario.constraints, got, float(expected))


@pytest.mark.parametrize("name", PEAK_PRESETS)
def test_rule_matches_quad_oracle_on_presets(name):
    for scenario in preset_scenarios(name):
        assert sep_peak_interference_exact(scenario) == pytest.approx(
            _gain_average(scenario, bound=False), rel=REL_TOL, abs=0.0)


def test_peak_presets_never_call_quad(monkeypatch):
    """The closed-form engines of the peak presets run without any quadrature."""
    def refuse(*args, **kwargs):
        raise AssertionError("an engine called quadrature")

    for module, attr in ((analytic, "quad"), (analytic, "dblquad"), (analytic, "integrate"),
                         (mathcore, "integrate")):
        monkeypatch.setattr(module, attr, refuse)
    for name in PEAK_PRESETS:
        rows = run_experiment(replace(figure_preset(name), engines=("analytic", "bound")))
        assert all(row.sep_analytic > 0 for row in rows)


# Properties over the grid the rule was measured on.
CASES = st.sampled_from(sorted(SCHEMES))
PEAK_DB = st.floats(-20.0, 40.0)
INTERFERENCE_DB = st.floats(-30.0, 30.0)
STEP_DB = st.floats(1e-6, 10.0)
SLACK = 1e-13


@settings(max_examples=60, deadline=None)
@given(case=CASES, ppk_db=PEAK_DB, qpk_db=INTERFERENCE_DB)
def test_sep_within_symbol_range(case, ppk_db, qpk_db):
    scenario = peak_scenario(case, ppk_db, qpk_db)
    m = scenario.m_inphase * scenario.m_quadrature
    assert 0.0 <= sep_peak_interference_exact(scenario) <= 1.0 - 1.0 / m


@settings(max_examples=60, deadline=None)
@given(case=CASES, ppk_db=PEAK_DB, qpk_db=INTERFERENCE_DB, step=STEP_DB,
       axis=st.sampled_from(["peak", "interference"]))
def test_sep_nonincreasing_in_each_limit(case, ppk_db, qpk_db, step, axis):
    """More peak power or a looser interference limit never raises the SEP:
    each raises min(P_pk, Q_pk / |g|^2) at every gain."""
    before = sep_peak_interference_exact(peak_scenario(case, ppk_db, qpk_db))
    if axis == "peak":
        after = sep_peak_interference_exact(peak_scenario(case, ppk_db + step, qpk_db))
    else:
        after = sep_peak_interference_exact(peak_scenario(case, ppk_db, qpk_db + step))
    assert after <= before * (1.0 + SLACK)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(["sss-2x2", "sss-8x8"]), ppk_db=PEAK_DB, qpk_db=INTERFERENCE_DB)
def test_bound_dominates_exact_for_qam(case, ppk_db, qpk_db):
    scenario = peak_scenario(case, ppk_db, qpk_db)
    assert sep_peak_interference(scenario) >= sep_peak_interference_exact(scenario)


# Run in a fresh interpreter: what importing cogsep and running the closed-form
# and Monte Carlo sweeps loads, then the first call of each scipy-backed
# function and of the two quadrature oracles on ``mathcore.integrate``.
COLD_START = """
import json, sys
from dataclasses import replace
import cogsep, cogsep.cli, cogsep.presets
from cogsep import (craig_q_numeric, gaussian_q, sep_peak_interference,
                    sep_rayleigh_numeric)
from cogsep.experiment import _scenario, run_experiment
from cogsep.presets import figure_preset

WATCHED = ("mpmath", "sympy", "scipy.integrate", "scipy.special")
def loaded():
    return [name for name in WATCHED if name in sys.modules]

after_import = loaded()
run_experiment(replace(figure_preset("fig1"), engines=("analytic", "bound")))
run_experiment(replace(figure_preset("fig2"), engines=("analytic", "monte_carlo"),
                       trials=2000))
after_sweeps = loaded()
values = [gaussian_q(1.3), sep_peak_interference(_scenario(figure_preset("fig5"), None)),
          craig_q_numeric(1.3), sep_rayleigh_numeric(_scenario(figure_preset("fig1"), None))]
print(json.dumps([after_import, after_sweeps, loaded(), [v.hex() for v in values]]))
"""


def test_import_loads_no_symbolic_or_multiprecision_package():
    """Importing cogsep and running its engines load neither the mpmath test
    oracle nor scipy's quadrature and special functions. ``scipy.special``
    loads on the first call that needs it, and the calls give the same
    doubles as here; no call loads ``scipy.integrate``, since every oracle
    runs on ``mathcore.integrate``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", COLD_START], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    after_import, after_sweeps, after_calls, cold = json.loads(out.stdout.splitlines()[-1])
    assert after_import == []
    assert after_sweeps == []
    assert after_calls == ["scipy.special"]
    warm = [gaussian_q(1.3), sep_peak_interference(_scenario(figure_preset("fig5"), None)),
            craig_q_numeric(1.3), sep_rayleigh_numeric(_scenario(figure_preset("fig1"), None))]
    assert [float.fromhex(v) for v in cold] == warm
