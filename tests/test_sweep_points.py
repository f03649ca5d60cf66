"""Properties of sweeps.

A config that ``validate`` accepts runs at every sweep point. The run uses
the very Scenarios that validation built, so either ``validate`` reports a
problem and the run stops with a ConfigError before it writes anything, or
every point yields a feasible row with a finite bound. A prior in (0, 1) and
P_f < 1 keep the idle decision possible, so no row may be infeasible. Noise
and mixture values include NaN and inf, the noise variance reaches past the
range of 10^+-100 and dB values past the span of 10^+-100 around the noise
variance that ``validate`` accepts; under ``filterwarnings = error`` an
overflow in a kernel fails the run.

The closed forms evaluate a whole sweep in one call, bit for bit as one
Scenario at a time, an infeasible point included, and every form, oracle and
Monte Carlo count is invariant to scaling every variance, power and limit by
a power of four.
"""

import math
import os
import tempfile
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cogsep import analytic, experiment
from cogsep.analytic import (
    ConstraintSet,
    Scheme,
    sep_conditional,
    sep_general_numeric,
    sep_peak_interference,
    sep_peak_interference_exact,
    sep_peak_interference_oracle,
    sep_rayleigh,
    sep_rayleigh_numeric,
    sep_upper_bound,
)
from cogsep.experiment import SWEEP_AXES, ConfigError, SweepSpec, run_experiment, validate
from cogsep.mathcore import GaussianMixture, QuadratureError
from cogsep.presets import PRESET_NAMES, figure_preset
from cogsep.sensing import ConditioningError, Occupancy
from cogsep.simulation import InsufficientDataError, MonteCarloConfig, run_monte_carlo

# values near the ends of [0, 1], and dB values near the float limits of 10^(x/10)
PROBABILITIES = st.sampled_from([0.0, 1e-12, 0.05, 0.5, 0.9, 1 - 1e-12, 1.0])
PROB_STEPS = st.sampled_from([1e-13, 0.07, 0.3, 0.5])
DECIBELS = st.one_of(
    st.sampled_from([-200.0, -20.0, 0.0, 4.0, 300.0]),
    st.sampled_from([-4000.0, -3240.0, -3100.0, 3082.0, 3083.0, float("inf")]),
)
DB_STEPS = st.sampled_from([0.5, 1.0, 150.0, 1000.0])
NOISE = st.sampled_from([0.01, 1e-300, math.nan, math.inf])
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
        load = (1 - point.p_detect) * row.p0 + point.p_detect * row.p1
        assert load <= 10.0 ** (point.q_avg_db / 10.0) * SLACK


def _preset(name, **updates):
    return replace(figure_preset(name), engines=("bound",), **updates)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(config=configs())
@example(config=_preset("fig2", noise_variance=math.nan))
@example(config=_preset("fig1", mixture_weights=(0.25, 0.25, 0.25, math.nan)))
@example(config=_preset("fig1", mixture_variances=(0.2, 0.4, math.nan, 0.8)))
@example(config=_preset("fig3", q_avg_db=-3100.0))
# the span rule refuses both; run, the first writes NaN bounds and the second
# overflows in the Rayleigh term
@example(config=_preset("fig5", q_pk_db=3082.0))
@example(config=_preset("fig1", p_pk_db=-3100.0, q_avg_db=-2970.0))
# every ratio in the span, but the noise variance beyond 1e100: run, the peak
# tail's 3 Q_pk overflows
@example(config=_preset("fig5", noise_variance=1e300,
                        mixture_variances=(2e301, 4e301, 6e301, 8e301),
                        p_pk_db=3040.0, q_pk_db=3080.0,
                        sweep=SweepSpec("p_pk_db", 3030.0, 3040.0, 1.0)))
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


# P_d and P_f at 0 or 1 leave one sensing decision with probability 0: a
# zero-weight row, or for OSA an infeasible point
EDGE_PROBABILITIES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
SWEPT_DECIBELS = st.floats(-20.0, 30.0)


def sweep_of(config, axis, values):
    """The Scenarios the runner evaluates at ``values`` of ``axis``, powers resolved."""
    scenarios = [experiment._scenario(config, axis, value) for value in values]
    return experiment._resolve_powers(config, scenarios)


@st.composite
def closed_form_sweep(draw, peak):
    """Either scheme, grids 2x1 to 8x8, 1-4 mixture components, and 1-8
    points along any sweep axis, under the fixed or the ``peak`` policy."""
    axis = draw(st.sampled_from([axis for axis in SWEEP_AXES
                                 if not (peak and axis == "q_avg_db")]))
    k = draw(st.integers(1, 4))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    mi, mq = draw(st.sampled_from([(2, 1), (8, 1), (2, 2), (4, 2), (4, 4), (8, 8)]))
    config = replace(
        figure_preset("fig1"),
        scheme=draw(st.sampled_from(Scheme)),
        m_inphase=mi,
        m_quadrature=mq,
        p_detect=draw(EDGE_PROBABILITIES),
        p_false_alarm=draw(EDGE_PROBABILITIES),
        prior_busy=draw(st.floats(0.05, 0.95)),
        noise_variance=draw(st.floats(1e-3, 1.0)),
        mixture_weights=tuple(w / sum(raw) for w in raw),
        mixture_variances=tuple(draw(st.lists(st.floats(1e-3, 10.0), min_size=k, max_size=k))),
        p_pk_db=draw(SWEPT_DECIBELS),
        q_avg_db=None if peak else draw(SWEPT_DECIBELS),
        q_pk_db=draw(SWEPT_DECIBELS) if peak else None,
    )
    values = draw(st.lists(SWEPT_DECIBELS if axis.endswith("_db") else EDGE_PROBABILITIES,
                           min_size=1, max_size=8))
    return sweep_of(config, axis, values)


# one sweep, or two back to back: only then can an idle-decision-only row
# (P_d = P_f = 0) meet a busy-decision-only one (P_d = P_f = 1)
CLOSED_FORM_SWEEPS = st.booleans().flatmap(
    lambda peak: st.lists(closed_form_sweep(peak), min_size=1, max_size=2)
    .map(lambda sweeps: [scenario for sweep in sweeps for scenario in sweep]))


def one_at_a_time(form, scenarios):
    outcomes = []
    for scenario in scenarios:
        try:
            outcomes.append(form(scenario))
        except ConditioningError as exc:
            outcomes.append(exc)
    return outcomes


def bits(outcomes):
    """Floats by their bits, errors by type and message."""
    return [(type(value), str(value)) if isinstance(value, Exception) else value.hex()
            for value in outcomes]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scenarios=CLOSED_FORM_SWEEPS)
# P_f = 1 at P_d = 1: OSA's idle decision has probability 0
@example(scenarios=sweep_of(replace(figure_preset("fig2"), p_detect=1.0),
                            "p_false_alarm", [0.05, 1.0, 0.5]))
@example(scenarios=sweep_of(replace(figure_preset("fig6"), p_detect=1.0),
                            "p_false_alarm", [1.0, 0.2]))
# P_d = 0 at P_f = 0 drops the busy row, P_f = 1 at P_d = 1 the idle row
@example(scenarios=sweep_of(replace(figure_preset("fig3"), p_false_alarm=0.0),
                            "p_detect", [0.0, 0.6, 1.0, 0.0]))
@example(scenarios=sweep_of(replace(figure_preset("fig4"), p_detect=1.0),
                            "p_false_alarm", [1.0, 0.3])
         + sweep_of(replace(figure_preset("fig3"), p_false_alarm=0.0), "p_detect", [0.0]))
def test_sequence_form_equals_one_scenario_calls(scenarios):
    forms = [sep_rayleigh, sep_upper_bound]
    if scenarios[0].power_policy == "peak_interference":
        forms += [sep_peak_interference, sep_peak_interference_exact]
    for form in forms:
        out = form(scenarios)
        assert bits(out) == bits(one_at_a_time(form, scenarios))
        assert bits(form(scenarios[::-1])) == bits(out)[::-1]


def test_long_sweep_is_stacked_in_slices(monkeypatch):
    """A sweep longer than ``_STACK_POINTS`` is evaluated a slice at a time,
    so its temporaries do not grow with the sweep, with the same values."""
    scenarios = sweep_of(figure_preset("fig5"), "p_pk_db",
                         [-10.0 + 0.05 * i for i in range(2 * analytic._STACK_POINTS + 3)])
    sizes = []
    stack = analytic._stack

    def counted(tables):
        sizes.append(len(tables))
        return stack(tables)

    monkeypatch.setattr(analytic, "_stack", counted)
    for form in (sep_rayleigh, sep_upper_bound, sep_peak_interference,
                 sep_peak_interference_exact):
        sizes.clear()
        out = form(scenarios)
        assert sizes == [analytic._STACK_POINTS, analytic._STACK_POINTS, 3]
        assert bits(out) == bits(one_at_a_time(form, scenarios))


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_rows_equal_one_scenario_forms_bit_for_bit(preset):
    """Each row's closed forms are the public one-Scenario forms at the row's
    resolved powers, to the bit, whatever tables the sweep shared."""
    config = replace(figure_preset(preset), engines=("analytic", "bound"),
                     output_path=None, json_path=None)
    exact, bound = ((sep_peak_interference_exact, sep_peak_interference)
                    if config.q_pk_db is not None else (sep_rayleigh, sep_upper_bound))
    for row in run_experiment(config):
        point = experiment._scenario(config, config.sweep.axis, row.sweep_value)
        busy = point.spec_busy and replace(point.spec_busy, power=row.p1)
        point = replace(point, spec_idle=replace(point.spec_idle, power=row.p0), spec_busy=busy)
        assert row.sep_analytic.hex() == exact(point).hex()
        assert row.sep_bound.hex() == bound(point).hex()


def test_iterables_are_read_once():
    """Each sweep form takes any iterable of Scenarios, a generator included,
    with the values of the list; the optimizer refuses one Scenario."""
    scenarios = sweep_of(figure_preset("fig5"), "p_pk_db", [-5.0, 0.0, 10.0])
    average = experiment._build(figure_preset("fig1"))[0][:4]
    for form, points in ((sep_rayleigh, scenarios), (sep_upper_bound, scenarios),
                         (sep_peak_interference, scenarios),
                         (sep_peak_interference_exact, scenarios),
                         (analytic.optimize_powers_sss, average)):
        assert form(point for point in points) == form(list(points))
    with pytest.raises(TypeError, match="sequence or an iterable of Scenarios, got Scenario"):
        analytic.optimize_powers_sss(average[0])
    with pytest.raises(TypeError, match="iterable of Scenarios, got int"):
        sep_rayleigh(3)


def test_plain_list_keeps_the_full_table_key():
    """A plain list whose points share one sensing model but differ in grid,
    mixture or noise gives each point its own value, bit for bit."""
    config = replace(figure_preset("fig3"), p_detect=0.8)
    variants = [config, replace(config, m_inphase=8, m_quadrature=1),
                replace(config, noise_variance=0.3),
                replace(config, mixture_weights=(1.0,), mixture_variances=(2.0,))]
    scenarios = [experiment._scenario(variant, None) for variant in variants]
    assert len({scenario.sensing for scenario in scenarios}) == 1
    for form in (sep_rayleigh, sep_upper_bound):
        assert bits(form(scenarios)) == bits(one_at_a_time(form, scenarios))
    optimized = analytic.optimize_powers_sss(scenarios)
    assert optimized == [analytic.optimize_powers_sss([s])[0] for s in scenarios]
    assert len(set(optimized)) == len(scenarios)


def test_shared_table_is_not_stacked():
    """Points that share one table are evaluated on it: ``_stack`` gives it back."""
    [table] = analytic._tables([experiment._scenario(figure_preset("fig1"), None)])
    assert analytic._stack([table] * 3) is table


def test_equal_inputs_share_one_table():
    """Scenarios built apart, with equal but distinct model objects, get the
    one table the first built."""
    first, second = (experiment._scenario(figure_preset("fig3"), None) for _ in range(2))
    assert first.sensing is not second.sensing
    assert first.interference is not second.interference
    assert analytic._branches(first) is analytic._branches(second)


def test_cached_table_is_read_only():
    table = analytic._branches(experiment._scenario(figure_preset("fig1"), None))
    with pytest.raises(ValueError, match="read-only"):
        table.variances[0] = 1.0
    with pytest.raises(TypeError):
        table.rows[0] = table.rows[-1]
    with pytest.raises(AttributeError):
        table.rows.append(table.rows[0])


def test_table_cache_holds_the_longest_sweep():
    """A sweep of ``MAX_SWEEP_POINTS`` distinct tables builds each once for
    its optimizer and both closed forms."""
    assert analytic._table.cache_info().maxsize >= experiment.MAX_SWEEP_POINTS


def _float_bits(values):
    return [value.hex() if isinstance(value, float) else value for value in values]


def test_negative_zero_gives_the_bits_of_zero():
    """-0.0 equals 0.0, so the cache may give either input the other's table:
    the model checks store it as +0.0, and both give the same bits."""
    outcomes = []
    for zero in (-0.0, 0.0):
        config = replace(figure_preset("fig3"), p_detect=zero,
                         mixture_weights=(zero, 0.5, 0.25, 0.25))
        scenario = experiment._scenario(config, None)
        analytic._table.cache_clear()  # each table built from its own inputs
        table = analytic._branches(scenario)
        outcomes.append((
            _float_bits(value for decision in Occupancy
                        for value in scenario.sensing.posteriors(decision)),
            _float_bits(value for row in table.rows for value in row),
            _float_bits(table.lam), table.variances.tobytes(),
            sep_conditional(scenario, zero).hex()))
    assert outcomes[0] == outcomes[1]


def scaled(scenario, c):
    """``scenario`` with its noise variance, every mixture variance, spec
    power and limit multiplied by ``c``."""
    limits = scenario.constraints
    busy = scenario.spec_busy
    return replace(
        scenario,
        spec_idle=replace(scenario.spec_idle, power=scenario.spec_idle.power * c),
        spec_busy=busy and replace(busy, power=busy.power * c),
        noise_variance=scenario.noise_variance * c,
        interference=GaussianMixture(tuple((w, v * c)
                                           for w, v in scenario.interference.components)),
        constraints=ConstraintSet(*(limit and limit * c for limit in (
            limits.peak_power, limits.avg_interference, limits.peak_interference))))


def outcome(form, *args):
    """A form's float by its bits, a Monte Carlo estimate by its counts, an
    error by its type and message."""
    try:
        value = form(*args)
    except (ConditioningError, QuadratureError, InsufficientDataError) as exc:
        return type(exc), str(exc)
    return value.hex() if isinstance(value, float) else (value.errors, value.trials)


def preset_points(name):
    """Three points of a preset's sweep: its first, middle and last values."""
    config = figure_preset(name)
    values = config.sweep.values()
    return sweep_of(config, config.sweep.axis, values[::(len(values) - 1) // 2])


def monte_carlo(scenario):
    return run_monte_carlo(scenario, MonteCarloConfig(trials=2000, master_seed=7))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(scenarios=CLOSED_FORM_SWEEPS, k=st.sampled_from([-3, 1, 5]))
@example(scenarios=preset_points("fig1"), k=-3)
@example(scenarios=preset_points("fig2"), k=1)
@example(scenarios=preset_points("fig3"), k=5)
@example(scenarios=preset_points("fig4"), k=-3)
@example(scenarios=preset_points("fig5"), k=1)
@example(scenarios=preset_points("fig6"), k=5)
@example(scenarios=preset_points("fig7"), k=-3)
@example(scenarios=preset_points("fig8"), k=1)
def test_scaling_by_a_power_of_four_changes_no_bit(scenarios, k):
    """The model reads its variances, powers and limits only through their
    ratios, and 4^k and its square root 2^k are exact in binary: scaling
    every one of them by 4^k leaves every closed form, oracle and Monte
    Carlo count the same bit for bit, and scales the optimal powers by
    exactly 4^k."""
    c = 4.0 ** k
    images = [scaled(scenario, c) for scenario in scenarios]
    forms = [sep_rayleigh, sep_upper_bound]
    point_forms = [(sep_conditional, 0.8), (sep_rayleigh_numeric,),
                   (sep_general_numeric, 0.8), (monte_carlo,)]
    if scenarios[0].power_policy == "peak_interference":
        forms += [sep_peak_interference, sep_peak_interference_exact]
        point_forms.append((sep_peak_interference_oracle,))
    for form in forms:
        assert bits(form(images)) == bits(form(scenarios))
    for scenario, image in zip(scenarios, images):
        for form, *args in point_forms:
            assert outcome(form, image, *args) == outcome(form, scenario, *args)
    if scenarios[0].power_policy == "fixed" and scenarios[0].scheme is Scheme.SSS:
        base = analytic.optimize_powers_sss(scenarios)
        assert analytic.optimize_powers_sss(images) == [
            analytic.OptimalPowers(powers.p0 * c, powers.p1 * c) for powers in base]
