"""The fading and region oracles in the high-SNR tail, against 50-digit mpmath.

Powers run from 20 to 120 dB over the per-axis noise variance 0.01 of
``make_scenario``, where the Rayleigh SEP falls to ~1e-14. An oracle that
certifies by relative gap must hold there to 1e-10 relative, or raise.
"""

import math

import pytest

from cogsep import Scheme, analytic, sep_general_numeric, sep_rayleigh_numeric
from cogsep.mathcore import QuadratureError

from conftest import make_scenario
from mp_reference import conditional_sep, fading_sep

REL_TOL = 1e-10
MODULATIONS = [(2, 1), (8, 1), (2, 2), (4, 4)]
DB_GRID = [20.0, 40.0, 60.0, 80.0, 100.0, 120.0]


def tail_scenario(scheme, modulation, db):
    power = 10.0 ** (db / 10.0)
    return make_scenario(scheme, modulation, p0=power,
                         p1=0.6 * power if scheme is Scheme.SSS else None)


def rel_gap(value, expected):
    return float(abs(value - expected) / expected)


@pytest.mark.parametrize("db", [60.0, 80.0])
def test_fading_oracle_holds_at_60_and_80_db(db):
    """Here a ``quad`` oracle over x = |h|^2 returned 1.7e-62 and 0.0 with a
    passing absolute error check, against SEPs of 2.7e-6 and 2.7e-8."""
    scenario = make_scenario(Scheme.SSS, (4, 4), p0=10.0 ** (db / 10.0),
                             p1=10.0 ** (db / 10.0))
    assert rel_gap(sep_rayleigh_numeric(scenario), fading_sep(scenario)) <= REL_TOL


@pytest.mark.parametrize("scheme", [Scheme.SSS, Scheme.OSA], ids=["sss", "osa"])
@pytest.mark.parametrize("modulation", MODULATIONS, ids=lambda m: f"{m[0]}x{m[1]}")
def test_fading_oracle_matches_mpmath_to_120_db(scheme, modulation):
    for db in DB_GRID:
        scenario = tail_scenario(scheme, modulation, db)
        expected = fading_sep(scenario)
        assert rel_gap(sep_rayleigh_numeric(scenario), expected) <= REL_TOL, (db, float(expected))


@pytest.mark.parametrize("scheme", [Scheme.SSS, Scheme.OSA], ids=["sss", "osa"])
@pytest.mark.parametrize("modulation", MODULATIONS, ids=lambda m: f"{m[0]}x{m[1]}")
def test_region_oracle_matches_mpmath_to_120_db(scheme, modulation):
    """|h| at 0.3, 1, 3 and 8 times the scale 2 sqrt(v_max) / d on which the
    widest disturbance's tails fall off, so the SEP spans ~1e-1 to ~1e-17."""
    for db in DB_GRID:
        scenario = tail_scenario(scheme, modulation, db)
        v_max = float(analytic._branches(scenario).variances.max())
        scale = 2.0 * math.sqrt(v_max) / scenario.spec_idle.min_distance()
        for multiple in (0.3, 1.0, 3.0, 8.0):
            magnitude = multiple * scale
            expected = conditional_sep(scenario, magnitude)
            got = sep_general_numeric(scenario, magnitude)
            assert rel_gap(got, expected) <= REL_TOL, (db, multiple, float(expected))


def test_fading_oracle_refuses_a_collapsed_value(monkeypatch):
    """A rule that returns a tiny value with a tiny error estimate trips the
    lower bound SEP(r1) (1 - e^{-r1^2}), since the conditional SEP decreases
    in |h|."""
    monkeypatch.setattr(analytic, "integrate", lambda f, breaks, rtol, atol=0.0: (1.7e-62, 0.0))
    with pytest.raises(QuadratureError, match="lower bound"):
        sep_rayleigh_numeric(tail_scenario(Scheme.SSS, (4, 4), 60.0))
