"""Property: a config that ``validate`` accepts runs at every sweep point.

The run uses the very Scenarios that validation built, so either
``validate`` reports a problem and the run stops with a ConfigError before it
writes anything, or every point yields a feasible row with a finite bound. A
prior in (0, 1) and P_f < 1 keep the idle decision possible, so no row may be
infeasible. Noise and mixture values include NaN and inf, and the mean gain
to the primary reaches 1e300, where the interference budget underflows.
"""

import math
import os
import tempfile
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cogsep.analytic import Scheme
from cogsep.experiment import ConfigError, SweepSpec, run_experiment, validate
from cogsep.presets import figure_preset

# values near the ends of [0, 1], and dB values near the float limits of 10^(x/10)
PROBABILITIES = st.sampled_from([0.0, 1e-12, 0.05, 0.5, 0.9, 1 - 1e-12, 1.0])
PROB_STEPS = st.sampled_from([1e-13, 0.07, 0.3, 0.5])
DECIBELS = st.one_of(
    st.sampled_from([-200.0, -20.0, 0.0, 4.0, 300.0]),
    st.sampled_from([-4000.0, -3240.0, 3082.0, 3083.0, float("inf")]),
)
DB_STEPS = st.sampled_from([0.5, 1.0, 150.0, 1000.0])
NOISE = st.sampled_from([0.01, 1e-300, math.nan, math.inf])
GAINS = st.sampled_from([1.0, 1e-3, 1e150, 1e300])
NONFINITE = st.sampled_from([math.nan, math.inf])
SLACK = 1 + 1e-12


@st.composite
def sweeps(draw):
    axis = draw(st.sampled_from(["q_avg_db", "p_pk_db", "p_detect", "p_false_alarm"]))
    if axis.endswith("_db"):
        start, step = draw(DECIBELS), draw(DB_STEPS)
    else:
        start, step = draw(PROBABILITIES), draw(PROB_STEPS)
    return SweepSpec(axis, start, start + step * draw(st.integers(0, 3)), step)


@st.composite
def mixtures(draw):
    """fig1's mixture, or that mixture with one weight or variance non-finite."""
    preset = figure_preset("fig1")
    lists = [list(preset.mixture_weights), list(preset.mixture_variances)]
    which = draw(st.sampled_from([None, 0, 1]))
    if which is not None:
        lists[which][draw(st.integers(0, len(lists[which]) - 1))] = draw(NONFINITE)
    return tuple(map(tuple, lists))


@st.composite
def configs(draw):
    sweep = draw(sweeps())
    scheme = draw(st.sampled_from([Scheme.SSS, Scheme.OSA]))
    peak = sweep.axis != "q_avg_db" and draw(st.booleans())
    explicit = not peak and draw(st.booleans())
    weights, variances = draw(mixtures())
    return replace(
        figure_preset("fig1"),
        scheme=scheme,
        p_detect=draw(PROBABILITIES),
        p_false_alarm=draw(st.sampled_from([0.0, 0.05, 0.5, 0.95])),
        prior_busy=draw(st.sampled_from([0.01, 0.4, 0.99])),
        noise_variance=draw(NOISE),
        mixture_weights=weights,
        mixture_variances=variances,
        mean_gain_to_primary=draw(GAINS),
        p_pk_db=draw(DECIBELS),
        q_avg_db=None if peak else draw(DECIBELS),
        q_pk_db=draw(DECIBELS) if peak else None,
        p0_db=draw(DECIBELS) if explicit else None,
        p1_db=draw(DECIBELS) if explicit and scheme is Scheme.SSS else None,
        sweep=sweep,
        engines=("bound",),
    )


def assert_feasible(config, row):
    """The row's powers meet the peak and average limits of its own point."""
    point = replace(config, **{config.sweep.axis: row.sweep_value})
    p_pk = 10.0 ** (point.p_pk_db / 10.0)
    assert 0 < row.p0 <= p_pk * SLACK and 0 <= row.p1 <= p_pk * SLACK
    if point.q_avg_db is not None:
        load = ((1 - point.p_detect) * row.p0 + point.p_detect * row.p1) \
            * point.mean_gain_to_primary
        assert load <= 10.0 ** (point.q_avg_db / 10.0) * SLACK


def _preset(name, **updates):
    return replace(figure_preset(name), engines=("bound",), **updates)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(config=configs())
@example(config=_preset("fig2", noise_variance=math.nan))
@example(config=_preset("fig1", mixture_weights=(0.25, 0.25, 0.25, math.nan)))
@example(config=_preset("fig1", mixture_variances=(0.2, 0.4, math.nan, 0.8)))
@example(config=_preset("fig3", mean_gain_to_primary=1e300, q_avg_db=-3000.0))
@example(config=_preset("fig3", mean_gain_to_primary=1e300, q_avg_db=-235.0))
def test_validated_config_runs_at_every_point(config):
    assume(config.sweep.axis != "p_false_alarm" or 1.0 not in config.sweep.values())
    diags = validate(config)
    with tempfile.TemporaryDirectory() as tmp:
        config = replace(config, output_path=os.path.join(tmp, "rows.csv"))
        if diags:
            with pytest.raises(ConfigError):
                run_experiment(config)
            assert os.listdir(tmp) == []
            return
        rows = run_experiment(config)
    assert len(rows) == len(config.sweep.values())
    for row in rows:
        assert row.sep_bound is not None and math.isfinite(row.sep_bound)
        assert_feasible(config, row)
