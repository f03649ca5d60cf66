"""Closed-form symbol error probabilities and constrained power policies.

The conditional (given fading magnitude) SEP of rectangular QAM under sensing
uncertainty, its Rayleigh-fading average and upper bound, peak-interference
averaged bounds over the secondary-to-primary gain, the constrained transmit
power optimizer, and brute-force quadrature oracles used to certify every
closed form.

Every closed form has one shape, evaluated by one kernel (``_sep``): per
sensing branch, weight x (idle posterior x Gaussian term + busy posterior x
sum_l lambda_l mixture term). Only the term differs between engines.

All per-axis variances follow the pdf convention of
:class:`~cogsep.mathcore.GaussianMixture`.
"""

import functools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .mathcore import (GaussianMixture, QuadratureError, _check_nonnegative, _check_positive,
                       _check_prob, _scipy, erfcx, gaussian_q, integrate, integrate_family)
from .modulation import ConstellationSpec, PointClass
from .sensing import ConditioningError, Occupancy, SensingModel

__all__ = [
    "Scheme",
    "ConstraintSet",
    "Scenario",
    "sep_class_conditional",
    "sep_conditional",
    "sep_rayleigh",
    "sep_rayleigh_numeric",
    "sep_upper_bound",
    "sep_general_numeric",
    "sep_peak_interference",
    "sep_peak_interference_oracle",
    "sep_peak_interference_exact",
    "optimize_powers_sss",
    "max_power_osa",
    "peak_power_policy",
    "OptimalPowers",
]


def __getattr__(name: str):
    """``quad`` and ``dblquad`` from ``scipy.integrate``, which no code here
    calls: every oracle runs on ``mathcore.integrate``. The names stay
    reachable only because perfbench/tracer.py wraps them by name; they go
    when the tracer reads trace records instead (ROADMAP item 2)."""
    if name in ("quad", "dblquad"):
        return getattr(_scipy("integrate"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Smallest transmit power the optimizer will consider, relative to the peak
# (or half the interference budget, if smaller, so that both powers on the
# active segment stay positive); the SEP limit as power -> 0+ is finite, but
# beta blows up at exactly 0.
_POWER_FLOOR_REL = 1e-12


class Scheme(Enum):
    SSS = "sss"  # transmit under both sensing decisions, powers P0 / P1
    OSA = "osa"  # transmit only when sensed idle


@dataclass(frozen=True)
class ConstraintSet:
    """Transmit power cap and interference limits, all in linear units and
    each positive and finite.

    ``avg_interference`` caps the sensing-weighted mean interference power at
    the primary receiver; ``peak_interference`` caps the instantaneous
    received power (requires knowing the gain realization). At most the
    relevant one needs to be present for a given policy. The gain to the
    primary has E{|g|^2} = 1 (a mean gain mu enters as the limits Q / mu).
    ``avg_interference``, the optimizer's budget, must be a normal float.
    """

    peak_power: float
    avg_interference: float | None = None
    peak_interference: float | None = None

    def __post_init__(self) -> None:
        for name in ("peak_power", "avg_interference", "peak_interference"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _check_positive(name, value))
        avg = self.avg_interference
        if avg is not None and not avg >= np.finfo(float).tiny:
            raise ValueError("avg_interference underflows the normal float range")


@dataclass(frozen=True)
class Scenario:
    """One operating point of the cognitive link.

    ``spec_idle`` / ``spec_busy`` carry the transmit powers used under the
    idle / busy sensing decisions; OSA forbids busy-decision transmission, so
    ``spec_busy`` must be None there. ``interference`` is the (unconvolved)
    primary-signal mixture; ``noise_variance`` is the per-axis background
    noise variance. ``power_policy`` is "fixed" for constant powers or
    "peak_interference" when the power tracks the instantaneous gain as
    min(P_pk, Q_pk/|g|^2); its specs then carry the cap P_pk.
    """

    scheme: Scheme
    spec_idle: ConstellationSpec
    spec_busy: ConstellationSpec | None
    sensing: SensingModel
    noise_variance: float
    interference: GaussianMixture
    constraints: ConstraintSet | None = None
    power_policy: str = "fixed"

    def __post_init__(self) -> None:
        object.__setattr__(self, "noise_variance",
                           _check_positive("noise_variance", self.noise_variance))
        if self.power_policy not in ("fixed", "peak_interference"):
            raise ValueError(f"unknown power_policy {self.power_policy!r}")
        peak_limit = self.constraints and self.constraints.peak_interference
        if self.power_policy == "peak_interference":
            if peak_limit is None:
                raise ValueError("the peak_interference policy needs that constraint")
            if any(spec and spec.power != self.constraints.peak_power
                   for spec in (self.spec_idle, self.spec_busy)):
                raise ValueError("the peak_interference policy needs spec powers "
                                 "equal to peak_power")
        if self.scheme is Scheme.OSA:
            if self.spec_busy is not None:
                raise ValueError("OSA forbids transmission when sensed busy (P1 = 0)")
        else:
            if self.spec_busy is None:
                raise ValueError("SSS needs a busy-decision constellation spec")
            same_grid = (
                self.spec_busy.m_inphase == self.spec_idle.m_inphase
                and self.spec_busy.m_quadrature == self.spec_idle.m_quadrature
            )
            if not same_grid:
                raise ValueError("idle/busy specs must share the modulation grid")

    @property
    def m_inphase(self) -> int:
        return self.spec_idle.m_inphase

    @property
    def m_quadrature(self) -> int:
        return self.spec_idle.m_quadrature


# ---------------------------------------------------------------------------
# The SEP kernel: sensing branches x disturbance variances
# ---------------------------------------------------------------------------

class _Table(NamedTuple):
    """Sensing-branch rows, the variances they share, and the grid's constants.

    ``rows`` holds (weight, post_idle, post_busy, decision) per transmitting
    branch; ``variances`` is [s0, s0 + s_1, ..., s0 + s_L] for noise variance
    s0 and mixture variances s_l, whose weights lambda_l are ``lam``. For an
    M_I x M_Q grid, ``k_mod`` is K = M_I^2 + M_Q^2 - 2 and ``c1``, ``c2`` are
    the Q and Q^2 coefficients 2 - 1/M_I - 1/M_Q and 2(1 - 1/M_I)(1 - 1/M_Q).
    ``shape``, the row decisions and the mixture size, is what tables must
    share to be stacked (``_stack``). A stacked table holds an array over the
    points in place of each number, and ``variances`` has shape (variance,
    point). A table is shared by every caller with its inputs (``_table``),
    so it is immutable: its rows are a tuple and its array is read-only.
    """

    rows: tuple
    lam: tuple
    variances: np.ndarray
    k_mod: int | np.ndarray
    c1: float | np.ndarray
    c2: float | np.ndarray
    shape: tuple


def _branches(scenario: Scenario) -> _Table:
    """Branch table of a scenario, built once per distinct table input (``_table``).

    For SSS the weights are the sensing-decision probabilities; for OSA only
    the idle decision transmits and the (conditional) weight is 1. Under the
    peak policy SSS has one row: with P0 = P1 = P_pk (``Scenario``) the
    sensing-decision average collapses by total probability onto the
    occupancy priors, so error rates do not depend on (P_d, P_f); OSA still
    conditions on an idle decision. Raises ConditioningError where OSA's idle
    decision has probability 0.
    """
    return _table(scenario.sensing, scenario.scheme, scenario.power_policy,
                  scenario.noise_variance, scenario.interference,
                  scenario.m_inphase, scenario.m_quadrature)


# Branch tables the cache keeps: at least experiment.MAX_SWEEP_POINTS, so
# that a sweep of distinct tables builds each once for its optimizer and
# closed forms together (the presets have ~90 between them).
_TABLES_KEPT = 2 ** 14


@functools.lru_cache(maxsize=_TABLES_KEPT)
def _table(s: SensingModel, scheme: Scheme, policy: str, noise: float, mix: GaussianMixture,
           mi: int, mq: int) -> _Table:
    """The branch table of these inputs (``_branches``). Equal inputs get the
    one table the first built; a ConditioningError is raised again each call."""
    osa = scheme is Scheme.OSA
    if policy == "peak_interference" and not osa:
        rows = [(1.0, s.prior_idle, s.prior_busy, Occupancy.IDLE)]
    else:
        rows = []
        for decision in (Occupancy.IDLE,) if osa else tuple(Occupancy):
            try:
                weight, post_idle, post_busy = s.posteriors(decision)
            except ConditioningError:
                if osa:
                    raise
                continue  # an SSS decision of probability 0 has no row
            rows.append((1.0 if osa else weight, post_idle, post_busy, decision))
    variances = np.concatenate(([noise], mix.variances + noise))
    variances.flags.writeable = False
    return _Table(tuple(rows), tuple(mix.weights.tolist()), variances,
                  mi * mi + mq * mq - 2, 2.0 - 1.0 / mi - 1.0 / mq,
                  2.0 * (1.0 - 1.0 / mi) * (1.0 - 1.0 / mq),
                  (tuple(row[3] for row in rows), len(mix.components)))


def _sequence(scenarios) -> Sequence:
    """``scenarios`` as a sequence: any other iterable is read once into a
    list. One Scenario, or anything else that is not an iterable, is a
    TypeError."""
    if isinstance(scenarios, Sequence):
        return scenarios
    if isinstance(scenarios, Scenario) or not isinstance(scenarios, Iterable):
        raise TypeError("expected a sequence or an iterable of Scenarios, "
                        f"got {type(scenarios).__name__}")
    return list(scenarios)


def _tables(scenarios: Sequence[Scenario]) -> list:
    """Each scenario's branch table, or its ConditioningError, in order."""
    tables = []
    for scenario in scenarios:
        try:
            tables.append(_branches(scenario))
        except ConditioningError as exc:
            tables.append(exc)
    return tables


def _stack(tables: list[_Table]) -> _Table:
    """One table over points whose tables share their ``shape``. Each number
    becomes the array of its values over the points, so one ``_sep`` call
    evaluates every point. Points that share one table get it back as it is:
    the powers alone carry the point axis, and each number broadcasts over
    it to the same values, bit for bit."""
    if all(table is tables[0] for table in tables):
        return tables[0]
    rows, lam, variances, k_mod, c1, c2, _ = zip(*tables)
    stacked = []
    for row in zip(*rows):  # one row across the points
        weight, post_idle, post_busy, decisions = zip(*row)
        stacked.append((np.array(weight), np.array(post_idle), np.array(post_busy),
                        decisions[0]))
    return _Table(tuple(stacked), tuple(map(np.array, zip(*lam))), np.stack(variances, axis=1),
                  np.array(k_mod), np.array(c1), np.array(c2), tables[0].shape)


def _sep(table: _Table, term, x, *args):
    """sum_b w_b (post_idle_b g(x_b, s0) + post_busy_b sum_l lambda_l g(x_b, s0 + s_l)).

    ``term(x, variance, table, *args)`` runs once over the whole (row x
    variance) table and reads the grid constants (K, c1, c2) from ``table``.
    ``x`` holds one entry per row in its first axis; further axes, e.g. a
    vector of powers, broadcast through. For a stacked table the point axis
    is last: ``x`` is (row, point) or (row, ..., point). A term may add
    trailing axes after those of ``x``, e.g. a (value, error) pair, and the
    sum keeps them. The sums run left to right, so each vector entry equals
    the scalar evaluation bit for bit.
    """
    x = np.asarray(x, dtype=float)
    shape = table.variances.shape  # the axes x adds go between its rows and the points
    variances = table.variances.reshape(shape[:1] + (1,) * (x.ndim - len(shape)) + shape[1:])
    g = term(x[:, None], variances, table, *args)
    if g.ndim == 2:
        g = g.tolist()  # one point: the same IEEE sums run faster on Python floats
    total = 0.0
    for (weight, post_idle, post_busy, _), g_row in zip(table.rows, g):
        busy = 0.0
        for lam, g_mix in zip(table.lam, g_row[1:]):
            busy = busy + lam * g_mix
        total = total + weight * (post_idle * g_row[0] + post_busy * busy)
    return total


def _spec(scenario: Scenario, decision: Occupancy) -> ConstellationSpec:
    return scenario.spec_busy if decision is Occupancy.BUSY else scenario.spec_idle


def _powers(table: _Table, p0, p1):
    """Per-row transmit powers (first axis): P0 on idle-decision rows, P1 on
    busy; P0 and P1 are floats or arrays of one shape."""
    return np.array([p1 if decision is Occupancy.BUSY else p0 for *_, decision in table.rows])


def _column(points, value):
    """``value(scenario)`` of one Scenario, or the array of its values over a
    stacked group of them, the point axis last."""
    if isinstance(points, Scenario):
        return value(points)
    return np.array([value(scenario) for scenario in points]).T


# Points per stacked closed-form call: the peak form's temporaries are
# (rows x variances x 149 nodes x points), ~1.5 MB each at 256 points with a
# 4-component mixture, however long the sweep (up to MAX_SWEEP_POINTS).
_STACK_POINTS = 256


def _closed_form(scenarios, evaluate, *args):
    """``evaluate(table, points, *args)`` of one Scenario, as a float, or of
    each of a sequence (or any iterable, read once) of them, as a list in
    order.

    A sequence (its tables from ``_tables``) is grouped by table shape, and
    each group is stacked (``_stack``) and evaluated by one call per
    ``_STACK_POINTS`` points, bit for bit the one-Scenario values. A point
    that conditions on a sensing decision of probability 0 (OSA's idle
    decision) gets its ConditioningError in its place, and the other points
    are still evaluated.
    """
    if isinstance(scenarios, Scenario):
        return float(evaluate(_branches(scenarios), scenarios, *args))
    scenarios = _sequence(scenarios)
    results = _tables(scenarios)
    groups: dict = {}
    for index, (scenario, table) in enumerate(zip(scenarios, results)):
        if not isinstance(table, ConditioningError):
            groups.setdefault(table.shape, []).append((index, scenario, table))
    for members in groups.values():
        for start in range(0, len(members), _STACK_POINTS):
            indices, points, tables = zip(*members[start:start + _STACK_POINTS])
            for index, value in zip(indices, evaluate(_stack(tables), points, *args).tolist()):
                results[index] = value
    return results


def _q_term(d2h2, variance, table: _Table):
    """Conditional SEP term for one disturbance variance.

    2 c1 Q(a) - 2 c2 Q^2(a) with a = sqrt(d^2 |h|^2 / (4 v)); 2 c2 is exactly
    4(1 - 1/M_I)(1 - 1/M_Q), since doubling rounds nothing.
    """
    qa = gaussian_q(np.sqrt(d2h2 / (4.0 * variance)))
    return 2.0 * table.c1 * qa - 2.0 * table.c2 * qa * qa


def _rayleigh_term(power, variance, table: _Table, bound: bool):
    """Fading average (|h|^2 ~ Exp(1)) of one conditional term.

    With beta = sqrt(1 + 2 K v / (3 P)), the Q term averages to
    (1 - 1/beta)/2 and the Q^2 term to the arctangent expression below.
    ``bound=True`` drops the (negative) Q^2 contribution, which is exact for
    PAM since c2 vanishes at M_Q = 1.
    """
    beta = np.sqrt(1.0 + 2.0 * table.k_mod * variance / (3.0 * power))
    inverse = 1.0 / beta
    t1 = table.c1 * (1.0 - inverse)
    if bound:
        return t1
    return t1 - table.c2 * (2.0 / math.pi / beta * np.arctan(inverse) - inverse + 0.5)


def _peak_tail(qpk, variance, table: _Table, b1, decay):
    """Gain average over y > b1 of one (1 - 1/beta) term at power Q_pk / y.

    e^{-b1} (1 - sqrt(pi gamma) erfcx(sqrt(gamma + b1))), gamma = 3 Q_pk / (2 K v),
    with ``decay`` = e^{-b1}.
    """
    gamma = 3.0 * qpk / (2.0 * table.k_mod * variance)
    return decay * (1.0 - np.sqrt(gamma * math.pi) * erfcx(np.sqrt(gamma + b1)))


# ---------------------------------------------------------------------------
# Conditional (given |h|) error probabilities
# ---------------------------------------------------------------------------

_CLASS_COEFFS = {
    PointClass.CORNER: (2.0, 1.0),
    PointClass.EDGE: (3.0, 2.0),
    PointClass.INNER: (4.0, 4.0),
}

_CLASS_COEFFS_PAM = {
    PointClass.CORNER: (1.0, 0.0),  # endpoint: single-sided error
    PointClass.EDGE: (2.0, 0.0),    # interior: errors on both sides
}


def sep_class_conditional(
    point_class: PointClass,
    spec: ConstellationSpec,
    magnitude: float,
    post_idle: float,
    noise_variance: float,
    mix: GaussianMixture,
) -> float:
    """Conditional SEP of one point class given the fading magnitude.

    Oracle: the paper's corner/edge/inner form pins ``sep_conditional`` to 1e-14.

    ``mix`` must already include the background noise (convolved mixture);
    the Gaussian branch uses ``noise_variance`` alone. ``post_idle`` weighs
    the Gaussian branch, its complement the mixture branch.
    """
    degenerate = spec.m_inphase == 1 or spec.m_quadrature == 1
    if degenerate:
        if point_class is PointClass.INNER:
            raise ValueError("PAM constellations have no inner points")
        c_q, c_q2 = _CLASS_COEFFS_PAM[point_class]
    else:
        c_q, c_q2 = _CLASS_COEFFS[point_class]

    d2h2 = spec.min_distance() ** 2 * magnitude**2

    def term(variance: float) -> float:
        qa = gaussian_q(math.sqrt(d2h2 / (4.0 * variance)))
        return c_q * qa - c_q2 * qa * qa

    value = post_idle * term(noise_variance)
    value += (1.0 - post_idle) * sum(w * term(v) for w, v in mix.components)
    return float(value)


def _squared_distances(scenario: Scenario, table: _Table) -> np.ndarray:
    """d^2 of each row's constellation."""
    return np.array([_spec(scenario, decision).min_distance() ** 2
                     for *_, decision in table.rows])


def sep_conditional(scenario: Scenario, magnitude: float) -> float:
    """Average conditional SEP given the fading magnitude |h|.

    Sensing-decision branches are weighted by their probabilities (SSS) or
    conditioned on an idle decision (OSA); within a branch the Gaussian and
    mixture disturbances are weighted by the occupancy posteriors. The result
    lies in [0, 1 - 1/M].
    """
    magnitude = _check_nonnegative("magnitude", magnitude)
    table = _branches(scenario)
    return float(_sep(table, _q_term, _squared_distances(scenario, table) * magnitude**2))


# ---------------------------------------------------------------------------
# Rayleigh-fading averages (closed forms) and their quadrature oracle
# ---------------------------------------------------------------------------

def _rayleigh(table: _Table, points, bound: bool):
    powers = _column(points, lambda scenario: [_spec(scenario, decision).power
                                               for *_, decision in table.rows])
    return _sep(table, _rayleigh_term, powers, bound)


def sep_rayleigh(scenarios: Scenario | Iterable[Scenario]):
    """Closed-form unconditional SEP over unit-mean Rayleigh fading.

    SSS averages over both sensing decisions; OSA conditions on an idle
    decision (transmission having occurred). One Scenario gives a float; a
    sequence, or any iterable read once, gives one value per scenario, or
    its ConditioningError, in order (``_closed_form``).
    """
    return _closed_form(scenarios, _rayleigh, False)


def sep_upper_bound(scenarios: Scenario | Iterable[Scenario]):
    """Rayleigh-averaged SEP with the negative Q^2 terms dropped.

    Coincides with the exact closed form whenever M_Q = 1 (PAM). Takes one
    Scenario or a sequence, as ``sep_rayleigh`` does.
    """
    return _closed_form(scenarios, _rayleigh, True)


# Relative tolerance the oracles integrate to, and the relative error
# estimate above which they refuse a result.
_ORACLE_RTOL = 1e-12
_ORACLE_BUDGET = 1e-10
# e^{-r^2} underflows past r = 27.3, and a standard normal density past
# 38.6 standard deviations: no mass lies beyond either.
_MAGNITUDE_END = 27.3
_TAIL_END = 38.6


def _octaves(step: float, end: float, equal: int = 1, parts: int = 1) -> np.ndarray:
    """Breakpoints 0, step / equal, 2 step / equal, ..., then step 2^(j / parts)
    for j = 0, 1, 2, ... below ``end``, then ``end``: ``equal`` equal panels
    on [0, step], then ``parts`` panels per octave."""
    count = parts * math.ceil(math.log2(end / step)) if step < end else 0
    inner = step * np.concatenate((np.arange(equal) / equal, 2.0 ** (np.arange(count) / parts)))
    return np.append(inner[inner < end], end)


def sep_rayleigh_numeric(scenario: Scenario) -> float:
    """Fading-average oracle: integrate the conditional SEP over |h| = r.

    The magnitude has density 2 r e^{-r^2}. In r the integrand is smooth at
    0; in x = r^2 the conditional SEP has a sqrt(x) kink there. The
    conditional SEP falls off on the scale r0 = sqrt(4 v_max / d_min^2), for
    the largest disturbance variance and the smallest distance of the branch
    table, which is of order 1e-5 at 100 dB. ``integrate`` starts from nine
    equal panels on [0, s], s = min(r0, 2), then half octaves s 2^(j/2) up
    to r = 27.3, where e^{-r^2} underflows; from -20 to 120 dB these first
    panels meet the tolerance, so a call takes one round. Without the cap,
    equal panels on [0, r0] are too wide at low SNR, and a call took up to
    four rounds. It runs to 1e-12 relative with no absolute floor, so the
    SEP is resolved however small it is; each round is one ``_sep`` call
    over all its nodes, and the first round's call has one more column, at
    r1, for the lower bound below.

    Independent of the closed-form path; used to certify ``sep_rayleigh``.
    Raises QuadratureError if the error estimate exceeds 1e-10 of the
    result, or if the result falls below SEP(r1) (1 - e^{-r1^2}) at
    r1 = min(r0, 27.3), a lower bound because the conditional SEP decreases
    in |h|: a collapse onto a tiny value cannot pass as a small SEP.
    """
    table = _branches(scenario)
    d2 = _squared_distances(scenario, table)
    r0 = math.sqrt(4.0 * float(table.variances.max()) / float(d2.min()))
    r1 = min(r0, _MAGNITUDE_END)
    floor = []

    def integrand(r):
        x = r if floor else np.append(r, r1)
        sep = _sep(table, _q_term, np.multiply.outer(d2, x**2))
        if not floor:
            floor.append(sep[-1] * -math.expm1(-r1 * r1))
        return sep[:r.size] * (2.0 * r) * np.exp(-r * r)

    breaks = _octaves(min(r0, 2.0), _MAGNITUDE_END, equal=9, parts=2)
    value, error = integrate(integrand, breaks, rtol=_ORACLE_RTOL)
    if not error <= _ORACLE_BUDGET * value:
        raise QuadratureError(
            f"fading average reached error {error:.3e} on {value:.3e} "
            f"(requested {_ORACLE_BUDGET:.0e} relative)")
    if not floor:  # a rule that returned without calling the integrand
        integrand(np.empty(0))
    floor, = floor
    if value < floor * (1.0 - _ORACLE_BUDGET):
        raise QuadratureError(
            f"fading average {value:.3e} is below its lower bound {floor:.3e}")
    return value


# ---------------------------------------------------------------------------
# Decision-region quadrature, one tail for both axes (oracle for sep_conditional)
# ---------------------------------------------------------------------------

def _region_term(spacing, variance, table: _Table, levels):
    """Mass of N(0, variance) per axis outside the decision regions of an
    M_I x M_Q grid (``levels``), averaged over the points, and its error
    estimate, in a trailing (value, error) axis.

    A region is a product of one interval per axis, so the mass is
    E_I + E_Q - E_I E_Q, for E an axis's mass outside its intervals averaged
    over its M levels: 2 (M - 1) / M tails, each starting c = spacing /
    (2 sqrt(variance)) standard deviations from its point, with mass
    e^{-c^2/2} int_0^inf e^{-u (c + u/2)} du / sqrt(2 pi). Factoring out
    e^{-c^2/2} keeps the large exponent out of the integrand's rounding.
    Both axes share the tail, so one ``integrate_family`` call has one member
    per (row, variance) with mass in its tail (c < 38.6), its panels broken
    at u = s 2^(j/2), j = 0, 1, 2, ..., for s = 1 / max(c, 1), so the rule
    cannot step over the mass; these half octaves meet the tolerance in the
    first round. The tolerance is relative only: an absolute floor would
    let the rule stop on a tail far below it. The error estimate goes
    through the product by the product rule.
    """
    c = spacing / (2.0 * np.sqrt(variance))
    term, tails = np.zeros(c.shape + (2,)), c < _TAIL_END
    scale = c[tails]
    if scale.size:
        integral, error = integrate_family(
            lambda u, k: np.exp(-u * (scale[k] + 0.5 * u)),
            [_octaves(1.0 / max(x, 1.0), _TAIL_END - x, parts=2) for x in scale.tolist()],
            rtol=_ORACLE_RTOL)
        decay = np.exp(-0.5 * scale * scale)
        (e_i, err_i), (e_q, err_q) = (2.0 * (m - 1) * decay / (math.sqrt(2.0 * math.pi) * m)
                                      * np.array((integral, error)) for m in levels)
        term[tails] = np.stack((e_i + e_q - e_i * e_q, err_i + err_q + err_i * err_q), axis=-1)
    return term


def sep_general_numeric(scenario: Scenario, magnitude: float) -> float:
    """Conditional SEP by direct integration over every decision region.

    Oracle for ``sep_conditional``: the same ``_sep`` weighting of the
    sensing branches, with the region integral (``_region_term``) in place
    of the corner/edge/inner Q and Q^2 counting. The weighting is certified
    by tests that do not go through ``_sep``: ``test_two_pam_matches_q_expression``,
    ``test_class_weighted_sum_matches_conditional`` and the mpmath
    ``conditional_sep`` tail tests. Summing the tails, rather than
    subtracting the correct mass from 1, keeps the result accurate relative
    to a tiny SEP. Each tail is integrated to 1e-12 relative, all in one
    loop; raises QuadratureError if the error estimate exceeds 1e-10 of the
    result.
    """
    magnitude = _check_nonnegative("magnitude", magnitude)
    table = _branches(scenario)
    spacing = [_spec(scenario, decision).min_distance() * magnitude
               for *_, decision in table.rows]
    sep, error = _sep(table, _region_term, spacing, (scenario.m_inphase, scenario.m_quadrature))
    if not error <= _ORACLE_BUDGET * sep:
        raise QuadratureError(
            f"decision-region quadrature reached error {error:.3e} on {sep:.3e} "
            f"(requested {_ORACLE_BUDGET:.0e} relative)")
    return float(sep)


# ---------------------------------------------------------------------------
# Power policies under interference constraints
# ---------------------------------------------------------------------------

def max_power_osa(constraints: ConstraintSet, p_detect: float) -> float:
    """Maximum idle-decision power under the average interference limit.

    min(P_pk, Q_avg / (1 - P_d)), with E{|g|^2} = 1 (``ConstraintSet``); the
    second term is infinite at P_d = 1, where only the peak cap binds.
    ``p_detect`` is a probability.
    """
    if constraints.avg_interference is None:
        raise ValueError("avg_interference constraint required")
    p_detect = _check_prob("p_detect", p_detect)
    if p_detect >= 1.0:
        return constraints.peak_power
    return min(constraints.peak_power, constraints.avg_interference / (1.0 - p_detect))


def peak_power_policy(constraints: ConstraintSet, gain, out=None):
    """Instantaneous power cap min(P_pk, Q_pk / |g|^2) for gain realizations.

    Applies to both sensing decisions (the interference limit must hold even
    on miss-detections), so SSS uses the same level for P0 and P1. ``gain``
    is a scalar (a float comes back) or an array; a zero gain gets P_pk.
    ``out``, a float array of the gain's shape, receives the powers; it may
    be ``gain`` itself, and is written only after the gains pass their check.
    """
    if constraints.peak_interference is None:
        raise ValueError("peak_interference constraint required")
    gain = np.asarray(gain, dtype=float)
    # min propagates NaN; the initial 0.0 admits an empty array
    if not np.min(gain, initial=0.0) >= 0:
        raise ValueError("gain must be nonnegative, not NaN")
    power = np.empty_like(gain) if out is None else out
    with np.errstate(divide="ignore"):
        np.divide(constraints.peak_interference, gain, out=power)
    np.minimum(power, constraints.peak_power, out=power)
    return float(power) if power.ndim == 0 else power


@dataclass(frozen=True)
class OptimalPowers:
    p0: float
    p1: float


def _p1(p0, ppk, budget, p_d, floor, p0_at_ppk):
    """P1 on the active segment: (budget - (1 - P_d) P0) / P_d clipped to
    [floor, P_pk], and P_pk up to P0 = p0_at_ppk, where it cancels at tiny P_d.
    The segment's numbers are floats, or arrays over points."""
    return np.where(p0 <= p0_at_ppk, ppk,
                    np.minimum(np.maximum((budget - (1.0 - p_d) * p0) / p_d, floor), ppk))


# The optimizer's scan (``_scan_best``): indices 0..512 along the active
# segment, a coarse pass at every 16th, the relative margin by which a window's
# ends must exceed its least SEP, and the golden stop's bracket (``_lockstep``).
_SCAN_LAST = 512
_SCAN_STRIDE = 16
_SCAN_MARGIN = 1e-13
_BRACKET_TOL = 1e-13


def _scan_p0(index, p0_min, p0_max):
    """P0 at scan index ``index`` (a float array; its first axes broadcast
    before the point axis), bit for bit ``np.linspace(p0_min, p0_max, 513)``:
    the same products and sums, the end set to ``p0_max``."""
    delta = p0_max - p0_min
    step = delta / _SCAN_LAST
    # linspace divides by 512 first, then scales, where the step underflows to 0
    p0 = np.where(step == 0.0, index / _SCAN_LAST * delta, index * step) + p0_min
    return np.where(index == _SCAN_LAST, p0_max, p0)


def _segment_sep(table: _Table, segment: tuple, p0):
    """The exact Rayleigh SEP at P0 on the active segment (P1 from ``_p1``)."""
    return _sep(table, _rayleigh_term, _powers(table, p0, _p1(p0, *segment)), False)


def _scan_best(table: _Table, segment: tuple, p0_min, p0_max):
    """Each point's scan index of the first least SEP over the 513-point scan.

    Two ``_sep`` calls cover every point: one at every 16th scan point, one
    at the 33 around the coarse minimum (the window). If the SEP along the
    segment is unimodal, and its rounding noise below half of _SCAN_MARGIN,
    the window holds the first least of all 513 whenever each end of the
    window is an end of the scan or exceeds the window's least by
    _SCAN_MARGIN relative: every scan point beyond such an end is then above
    that least. A flat segment, like that of P_d = P_f = 1e-12, where
    neither power moves the SEP by more than ~1e-12, fails that test; if a
    point fails it, a third call scans all 513 points of every point, and
    ``np.where`` takes that scan's index for the failing points only.
    """
    coarse = _segment_sep(table, segment, _scan_p0(
        np.arange(0.0, _SCAN_LAST + 1.0, _SCAN_STRIDE)[:, None], p0_min, p0_max))
    last_low = _SCAN_LAST - 2 * _SCAN_STRIDE
    low = np.clip(_SCAN_STRIDE * (np.argmin(coarse, axis=0) - 1), 0, last_low)
    values = _segment_sep(table, segment, _scan_p0(
        low + np.arange(2.0 * _SCAN_STRIDE + 1.0)[:, None], p0_min, p0_max))
    above = values.min(axis=0) * (1.0 + _SCAN_MARGIN)
    clear = (((low == 0) | (values[0] > above))
             & ((low == last_low) | (values[-1] > above)))
    best = low + np.argmin(values, axis=0)
    if clear.all():
        return best
    scan = _segment_sep(table, segment, _scan_p0(
        np.arange(_SCAN_LAST + 1.0)[:, None], p0_min, p0_max))
    return np.where(clear, best, np.argmin(scan, axis=0))


def _lockstep(table: _Table, segment: tuple, p0_min, p0_max, a, b):
    """(P0, P1) arrays: golden-section search (Kiefer, 1953) on [a, b], then
    the first least SEP of its midpoint, ``p0_min`` and ``p0_max``, in that
    order, for every point of a stacked table at once.

    The steps go two per ``_sep`` call: an odd step's call evaluates its
    probe and both probes the next step may take, d - phi (d - a) if that
    step keeps [a, d] and c + phi (b - c) if it keeps [c, b] (a, b, c, d
    after the odd step), and the even step takes its own by ``np.where``.
    Every probe and SEP is the float of a one-step loop, at half its calls.

    A point stops at its first step with b - a <= _BRACKET_TOL b, or at step
    90, and the steps run until every point has stopped; a step that stops
    the last point makes no call. The fig1, fig3 and fig4 sweeps take 54, 53
    and 61 steps. ``np.where`` takes each point's branch, and each point
    takes the [a, b] of its own stop step, so its result is a one-point
    call's, bit for bit.
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = _segment_sep(table, segment, np.array((c, d)))
    brackets = np.empty((91, 2, len(a)))  # [a, b] after each step
    stopped = np.zeros(len(a), bool)
    for step in range(1, 91):
        left = fc < fd  # keep [a, d] and probe left of c, else keep [c, b]
        a, b = np.where(left, a, c), np.where(left, d, b)
        brackets[step, 0], brackets[step, 1] = a, b
        stopped |= b - a <= _BRACKET_TOL * b
        if stopped.all():
            break
        if step % 2:
            x = np.where(left, b - inv_phi * (b - a), a + inv_phi * (b - a))
        else:  # the probe of this branch that the last call evaluated
            x, fx = np.where(left, probes[1], probes[2]), np.where(left, values[1], values[2])
        c, d = np.where(left, x, d), np.where(left, c, x)
        if step % 2:  # x, and the next step's probe for [a, d] and for [c, b]
            probes = np.array((x, d - inv_phi * (d - a), c + inv_phi * (b - c)))
            values = _segment_sep(table, segment, probes)
            fx = values[0]
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    a, b = brackets[1:step + 1].transpose(1, 0, 2)
    closed = b - a <= _BRACKET_TOL * b
    closed[-1] = True  # step 90, or the step that stopped the last point
    stop, points = closed.argmax(axis=0), np.arange(len(stopped))
    candidates = np.array(((a[stop, points] + b[stop, points]) / 2.0, p0_min, p0_max))
    choice = np.argmin(_segment_sep(table, segment, candidates), axis=0)
    p0 = candidates[choice, points]
    return p0, _p1(p0, *segment)


def optimize_powers_sss(scenarios: Iterable[Scenario]) -> list[OptimalPowers]:
    """Minimize the SSS Rayleigh SEP over (P0, P1) under the constraints, at
    each of ``scenarios`` (a sequence, or any iterable read once); one
    OptimalPowers per scenario, in order.

    A scenario gives the grid, sensing, noise, mixture and constraints; the
    powers its specs carry are ignored. Subject to P0, P1 <= P_pk and the
    sensing-weighted average interference limit (1 - P_d) P0 + P_d P1 <= Q_avg,
    with E{|g|^2} = 1 (``ConstraintSet``). The SEP is strictly
    decreasing in each power, so the optimum sits on the upper boundary of the
    feasible set; a 513-point scan along the active constraint segment
    brackets the best point and golden-section search refines it.

    Only powers come back; the SEP at them is ``sep_rayleigh`` of the
    Scenario that carries them. The corner (both powers at the peak) and
    P_d in {0, 1} take no SEP call. The other points are grouped by table
    shape and solved ``_STACK_POINTS`` at a time on one stacked table
    (``_stack``), one ``_sep`` call per evaluation for all of them: the scan
    (``_scan_best``) is two calls, plus one over all 513 scan points where a
    window fails the margin test; then the golden steps run in lockstep
    (``_lockstep``), two steps per call, until every point's bracket is
    within 1e-13 relative. The fig1, fig3 and fig4 sweeps take 31, 30 and
    34 calls. Each result equals that of a one-scenario call bit for bit,
    which matters because one ulp of SEP moves the golden p0* by up to
    ~1e-8: each SEP is the same float the per-point scan and search compute,
    the window's first least is the scan's, and each point stops at its own
    step.
    """
    scenarios = _sequence(scenarios)
    results: list = [None] * len(scenarios)
    groups: dict = {}
    for index, scenario in enumerate(scenarios):
        if scenario.scheme is not Scheme.SSS or scenario.power_policy != "fixed":
            raise ValueError("the power optimizer needs an SSS scenario under the fixed "
                             "power policy")
        constraints = scenario.constraints
        if constraints is None or constraints.avg_interference is None:
            raise ValueError("avg_interference constraint required")
        ppk = constraints.peak_power
        budget = constraints.avg_interference
        p_d = scenario.sensing.p_detect

        # The constraint inactive at the corner, or only one power under the budget.
        corner = ((ppk, ppk) if ppk <= budget else (budget, ppk) if p_d == 0.0
                  else (ppk, budget) if p_d == 1.0 else None)
        if corner is not None:
            results[index] = OptimalPowers(*corner)
            continue

        floor = min(ppk * _POWER_FLOOR_REL, budget / 2.0)
        p0_at_ppk = (budget - p_d * ppk) / (1.0 - p_d)
        table = _branches(scenario)
        groups.setdefault(table.shape, []).append(
            (index, table, (ppk, budget, p_d, floor, p0_at_ppk), max(floor, p0_at_ppk),
             min(ppk, (budget - p_d * floor) / (1.0 - p_d))))

    for members in groups.values():
        for start in range(0, len(members), _STACK_POINTS):
            indices, tables, segments, p0_min, p0_max = zip(*members[start:start + _STACK_POINTS])
            table, segment = _stack(tables), tuple(map(np.array, zip(*segments)))
            p0_min, p0_max = np.array(p0_min), np.array(p0_max)
            best = _scan_best(table, segment, p0_min, p0_max)
            bracket = (_scan_p0(np.maximum(best - 1, 0).astype(float), p0_min, p0_max),
                       _scan_p0(np.minimum(best + 1, _SCAN_LAST).astype(float), p0_min, p0_max))
            p0, p1 = _lockstep(table, segment, p0_min, p0_max, *bracket)
            for index, *powers in zip(indices, p0.tolist(), p1.tolist()):
                results[index] = OptimalPowers(*powers)
    return results


# ---------------------------------------------------------------------------
# Peak-interference constrained averages over the gain |g|^2 ~ Exp(1)
# ---------------------------------------------------------------------------

def _peak_constants(scenario: Scenario) -> tuple[float, float, float, float]:
    """P_pk, Q_pk, b1 = Q_pk / P_pk and e^{-b1}, by libm: ``np.exp`` need not
    round as it does."""
    if scenario.power_policy != "peak_interference":
        raise ValueError("scenario needs the peak_interference power policy")
    ppk, qpk = scenario.constraints.peak_power, scenario.constraints.peak_interference
    return ppk, qpk, qpk / ppk, math.exp(-(qpk / ppk))


def _peak_split(table: _Table, points, bound: bool):
    """b1, e^{-b1}, Q_pk and the head (1 - e^{-b1}) f(P_pk) where the cap
    binds, f the Rayleigh SEP (the bound or the exact form) over the peak
    policy's collapsed table. Each caller adds its own tail over |g|^2 > b1.
    Floats for one Scenario, arrays over the points of a stacked group."""
    ppk, qpk, b1, decay = _column(points, _peak_constants)
    return b1, decay, qpk, (1.0 - decay) * _sep(table, _rayleigh_term, [ppk], bound)


def _peak_bound(table: _Table, points):
    b1, decay, qpk, capped = _peak_split(table, points, bound=True)
    return capped + table.c1 * _sep(table, _peak_tail, [qpk], b1, decay)


def sep_peak_interference(scenarios: Scenario | Iterable[Scenario]):
    """Closed-form gain-averaged SEP upper bound under the peak policy.

    With b1 = Q_pk / P_pk the cap binds for |g|^2 < b1; beyond it the bound's
    (1 - 1/beta) terms integrate against e^{-y} to
    e^{-b1} (1 - sqrt(pi gamma) erfcx(sqrt(gamma + b1))),
    gamma = 3 Q_pk / (2 (M_I^2 + M_Q^2 - 2) v). Exact for PAM.

    The sign of the exponent matters: this form follows from the defining
    integral int_{b1}^inf (1 - 1/beta(Q_pk/y)) e^{-y} dy (checked against
    adaptive quadrature to better than 1e-12), while a commonly transcribed
    variant with e^{+b1} grows without bound. Writing it with ``erfcx`` also
    stays finite where a literal e^{gamma} Q(...) product would overflow.
    Takes one Scenario or a sequence, as ``sep_rayleigh`` does.
    """
    return _closed_form(scenarios, _peak_bound)


# e^{-y} underflows past y = 745: no gain mass lies beyond it.
_GAIN_END = 745.0
# The peak oracle's breakpoints past b1 + 1/8, as offsets on the scale of e^{-y}.
_GAIN_BREAKS = np.array([0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0,
                         20.0, 35.0, 50.0, 100.0])


def _gain_average(scenario: Scenario, bound: bool) -> float:
    """(1 - e^{-b1}) f(P_pk) + int_{b1}^inf f(Q_pk / y) e^{-y} dy by ``integrate``.

    f is the Rayleigh SEP (the bound or the exact form) at a
    decision-independent power, over the collapsed branch table. This is the
    quadrature oracle of both peak-policy averages: of the closed-form bound
    ``sep_peak_interference`` and of the fixed rule in
    ``sep_peak_interference_exact``. No engine calls it.

    Panels break at b1, where the cap stops binding; at b1 + b1 2^j below
    b1 + 1/8, since near y = b1 the integrand f(Q_pk / y) varies on the
    scale of b1 itself; and at b1 + 1/8, 1/4, 1/2, 1, 1.5, 2, 3, 4, 6, 8, 12,
    20, 35, 50 and 100 on the scale of e^{-y}, up to y = 745, where it
    underflows. So a call takes one round of one ``_sep`` call on the
    benchmark's grids. The octaves start at 1e-12 when b1 is smaller, or 0
    where Q_pk / P_pk underflows, so that they stay finite and few. The
    tolerance is 1e-12 absolute or 1e-10 relative: f, the closed-form
    Rayleigh term, is itself noisy at ~1e-10 relative at P_pk = Q_pk = 60 dB,
    so a relative-only 1e-12 rule runs out of panels there (ROADMAP item 1).
    Raises QuadratureError if the error estimate exceeds 1e-8.
    """
    table = _branches(scenario)
    b1, _, qpk, head = _peak_split(table, scenario, bound)
    if b1 >= _GAIN_END:
        return head
    offsets = np.concatenate((_octaves(max(b1, 1e-12), 0.125), _GAIN_BREAKS))
    breaks = [y for y in b1 + offsets if y < _GAIN_END]
    tail, abserr = integrate(
        lambda y: _sep(table, _rayleigh_term, [qpk / y], bound) * np.exp(-y),
        [*breaks, _GAIN_END], rtol=1e-10, atol=1e-12)
    if abserr > 1e-8:
        raise QuadratureError(
            f"gain average reached abs error {abserr:.3e} (requested 1e-8)")
    return head + tail


def sep_peak_interference_oracle(scenario: Scenario) -> float:
    """Quadrature oracle for ``sep_peak_interference``: average the
    power-parameterized upper bound over the gain distribution directly."""
    return _gain_average(scenario, bound=True)


# Exp-sinh rule for int_0^inf g(t) e^{-t} dt (Takahasi & Mori, 1974):
# t_k = exp((pi/2) sinh u_k) on u_k = -4.2 + k h, h = 0.04, u_k < 1.75, with
# weights h (pi/2) cosh(u_k) t_k e^{-t_k}. The 149 nodes run from 1.8e-23 to
# 70; crowding double-exponentially at t = 0, they resolve a branch point of
# g just left of 0, where a Gauss-Laguerre rule of 128 nodes loses 3 digits.
_EXP_SINH_U = -4.2 + 0.04 * np.arange(149)
_EXP_SINH_NODES = np.exp(0.5 * math.pi * np.sinh(_EXP_SINH_U))
_EXP_SINH_WEIGHTS = (0.04 * 0.5 * math.pi * np.cosh(_EXP_SINH_U)
                     * _EXP_SINH_NODES * np.exp(-_EXP_SINH_NODES))


def _peak_exact(table: _Table, points):
    b1, decay, qpk, head = _peak_split(table, points, bound=False)
    tail = _sep(table, _rayleigh_term, [qpk / np.add.outer(_EXP_SINH_NODES, b1)], False)
    if np.ndim(b1) == 0:
        return head + decay * float(_EXP_SINH_WEIGHTS @ tail)
    # a 1-D dot per point: a matrix-vector product may sum in another order
    return head + decay * np.array([_EXP_SINH_WEIGHTS @ point for point in tail.T.copy()])


def sep_peak_interference_exact(scenarios: Scenario | Iterable[Scenario]):
    """Gain average of the exact Rayleigh SEP under the peak power policy.

    No closed form exists (the Q^2 terms do not average in closed form over
    the gain). With y = b1 + t the tail is
    e^{-b1} int_0^inf f(Q_pk / (b1 + t)) e^{-t} dt, evaluated by one fixed
    149-node exp-sinh rule in a single ``_sep`` call over the (rows x
    variances x nodes) table. On a 5 dB x 10 dB grid over P_pk -20..40 dB and
    Q_pk -30..30 dB, for SSS 2x2, SSS 8x8 and OSA 8x1, it stays within 8.3e-14
    relative of a 40-digit mpmath integral (``tests/mp_reference.py``);
    ``_gain_average`` is its quadrature oracle. It is the reference the Monte
    Carlo engine is compared against in peak-interference mode. Uses the
    same collapsed branch weights as the bound, so SSS results are
    bitwise-independent of the sensing quality. Takes one Scenario or a
    sequence, as ``sep_rayleigh`` does; a sequence evaluates each group of
    points on one (rows x variances x nodes x points) table.
    """
    return _closed_form(scenarios, _peak_exact)
