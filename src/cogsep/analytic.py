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

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .mathcore import GaussianMixture, QuadratureError, _scipy, erfcx, gaussian_q, integrate
from .modulation import ConstellationSpec, PointClass
from .sensing import Occupancy, SensingModel, _check_prob

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
    when the tracer reads trace records instead (ROADMAP item 3)."""
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
    relevant one needs to be present for a given policy.
    """

    peak_power: float
    avg_interference: float | None = None
    peak_interference: float | None = None
    mean_gain_to_primary: float = 1.0

    def __post_init__(self) -> None:
        for name in ("peak_power", "avg_interference", "peak_interference",
                     "mean_gain_to_primary"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        avg, gain = self.avg_interference, self.mean_gain_to_primary
        if avg is not None and not avg / gain >= np.finfo(float).tiny:  # a normal float
            raise ValueError("avg_interference / mean_gain_to_primary underflows")


@dataclass(frozen=True)
class Scenario:
    """One operating point of the cognitive link.

    ``spec_idle`` / ``spec_busy`` carry the transmit powers used under the
    idle / busy sensing decisions; OSA forbids busy-decision transmission, so
    ``spec_busy`` must be None there. ``interference`` is the (unconvolved)
    primary-signal mixture; ``noise_variance`` is the per-axis background
    noise variance. ``power_policy`` is "fixed" for constant powers or
    "peak_interference" when the power tracks the instantaneous gain as
    min(P_pk, Q_pk/|g|^2).
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
        if not 0 < self.noise_variance < math.inf:
            raise ValueError("noise_variance must be positive and finite")
        if self.power_policy not in ("fixed", "peak_interference"):
            raise ValueError(f"unknown power_policy {self.power_policy!r}")
        peak_limit = self.constraints and self.constraints.peak_interference
        if self.power_policy == "peak_interference" and peak_limit is None:
            raise ValueError("the peak_interference policy needs that constraint")
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
    """

    rows: list
    lam: tuple
    variances: np.ndarray
    k_mod: int
    c1: float
    c2: float


def _branches(scenario: Scenario, collapse: bool = False) -> _Table:
    """Branch table of a scenario; build it once, outside any hot loop.

    For SSS the weights are the sensing-decision probabilities; for OSA only
    the idle decision transmits and the (conditional) weight is 1.
    ``collapse`` is the peak policy's single row: with P0* = P1* the SSS
    sensing-decision average collapses by total probability onto the
    occupancy priors, so error rates do not depend on (P_d, P_f); OSA still
    conditions on an idle decision.
    """
    s = scenario.sensing
    osa = scenario.scheme is Scheme.OSA
    if collapse and not osa:
        rows = [(1.0, s.prior_idle, s.prior_busy, Occupancy.IDLE)]
    else:
        rows = []
        for decision in (Occupancy.IDLE,) if osa else tuple(Occupancy):
            weight = 1.0 if osa else s.decision_prob(decision)
            if weight != 0.0:
                rows.append((weight, s.posterior(Occupancy.IDLE, decision),
                             s.posterior(Occupancy.BUSY, decision), decision))
    mix, noise = scenario.interference, scenario.noise_variance
    mi, mq = scenario.m_inphase, scenario.m_quadrature
    return _Table(rows, tuple(mix.weights.tolist()),
                  np.concatenate(([noise], mix.variances + noise)),
                  mi * mi + mq * mq - 2, 2.0 - 1.0 / mi - 1.0 / mq,
                  2.0 * (1.0 - 1.0 / mi) * (1.0 - 1.0 / mq))


def _sep(table: _Table, term, x, *args):
    """sum_b w_b (post_idle_b g(x_b, s0) + post_busy_b sum_l lambda_l g(x_b, s0 + s_l)).

    ``term(x, variance, table, *args)`` runs once over the whole (row x
    variance) table and reads the grid constants (K, c1, c2) from ``table``.
    ``x`` holds one entry per row in its first axis; further axes, e.g. a
    vector of powers, broadcast through. The sums run left to right, so each
    vector entry equals the scalar evaluation bit for bit.
    """
    x = np.asarray(x, dtype=float)
    g = term(x[:, None], table.variances.reshape((-1,) + (1,) * (x.ndim - 1)), table, *args)
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
    """Per-row transmit powers (first axis): P0 on idle-decision rows, P1 on busy."""
    return np.stack(np.broadcast_arrays(
        *(p1 if decision is Occupancy.BUSY else p0 for *_, decision in table.rows)))


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
    t1 = table.c1 * (1.0 - 1.0 / beta)
    if bound:
        return t1
    return t1 - table.c2 * (2.0 / math.pi / beta * np.arctan(1.0 / beta) - 1.0 / beta + 0.5)


def _float_sep(table: _Table):
    """SEP(P0, P1) on floats, bit for bit the exact (not bound) ``_sep`` of ``_rayleigh_term``."""
    numerators = [2.0 * table.k_mod * v for v in table.variances.tolist()]
    c1, c2 = table.c1, table.c2

    def sep(p0, p1):
        three_p = [3.0 * (p1 if d is Occupancy.BUSY else p0) for *_, d in table.rows]
        beta = [math.sqrt(1.0 + num / tp) for tp in three_p for num in numerators]
        inv = [1.0 / b for b in beta]
        g = iter([c1 * (1.0 - i) - c2 * (2.0 / math.pi / b * a - i + 0.5)
                  for b, i, a in zip(beta, inv, np.arctan(inv).tolist())])
        total = 0.0
        for weight, post_idle, post_busy, _ in table.rows:
            idle, busy = next(g), 0.0
            for lam in table.lam:
                busy = busy + lam * next(g)
            total = total + weight * (post_idle * idle + post_busy * busy)
        return total
    return sep


def _peak_tail(qpk, variance, table: _Table, b1: float):
    """Gain average over y > b1 of one (1 - 1/beta) term at power Q_pk / y.

    e^{-b1} (1 - sqrt(pi gamma) erfcx(sqrt(gamma + b1))), gamma = 3 Q_pk / (2 K v).
    """
    gamma = 3.0 * qpk / (2.0 * table.k_mod * variance)
    return math.exp(-b1) * (
        1.0 - np.sqrt(gamma * math.pi) * erfcx(np.sqrt(gamma + b1)))


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


def _conditional(scenario: Scenario, table: _Table):
    """``sep_conditional`` as a function of |h|, over the scenario's branch table.

    A scalar magnitude gives a float; a 1-D array of magnitudes gives the
    array of SEPs, by one ``_sep`` call over (rows x variances x magnitudes).
    """
    d2 = _squared_distances(scenario, table)

    def conditional(magnitude):
        value = _sep(table, _q_term, np.multiply.outer(d2, magnitude**2))
        return float(value) if np.ndim(magnitude) == 0 else value

    return conditional


def _check_magnitude(magnitude: float) -> None:
    if not 0.0 <= magnitude < math.inf:
        raise ValueError(f"magnitude must be nonnegative and finite, got {magnitude!r}")


def sep_conditional(scenario: Scenario, magnitude: float) -> float:
    """Average conditional SEP given the fading magnitude |h|.

    Sensing-decision branches are weighted by their probabilities (SSS) or
    conditioned on an idle decision (OSA); within a branch the Gaussian and
    mixture disturbances are weighted by the occupancy posteriors. The result
    lies in [0, 1 - 1/M].
    """
    _check_magnitude(magnitude)
    return _conditional(scenario, _branches(scenario))(magnitude)


# ---------------------------------------------------------------------------
# Rayleigh-fading averages (closed forms) and their quadrature oracle
# ---------------------------------------------------------------------------

def _sep_rayleigh(scenario: Scenario, bound: bool) -> float:
    table = _branches(scenario)
    powers = [_spec(scenario, decision).power for *_, decision in table.rows]
    return float(_sep(table, _rayleigh_term, powers, bound))


def sep_rayleigh(scenario: Scenario) -> float:
    """Closed-form unconditional SEP over unit-mean Rayleigh fading.

    SSS averages over both sensing decisions; OSA conditions on an idle
    decision (transmission having occurred).
    """
    return _sep_rayleigh(scenario, bound=False)


def sep_upper_bound(scenario: Scenario) -> float:
    """Rayleigh-averaged SEP with the negative Q^2 terms dropped.

    Coincides with the exact closed form whenever M_Q = 1 (PAM).
    """
    return _sep_rayleigh(scenario, bound=True)


# Relative tolerance the oracles integrate to, and the relative error
# estimate above which they refuse a result.
_ORACLE_RTOL = 1e-12
_ORACLE_BUDGET = 1e-10
# e^{-r^2} underflows past r = 27.3, and a standard normal density past
# 38.6 standard deviations: no mass lies beyond either.
_MAGNITUDE_END = 27.3
_TAIL_END = 38.6


def _doubling(step: float, end: float) -> np.ndarray:
    """Breakpoints 0, step, 2 step, 4 step, ... below ``end``, then ``end``."""
    count = math.ceil(math.log2(end / step)) if step < end else 0
    return np.concatenate(([0.0], step * 2.0 ** np.arange(count), [end]))


def sep_rayleigh_numeric(scenario: Scenario) -> float:
    """Fading-average oracle: integrate the conditional SEP over |h| = r.

    The magnitude has density 2 r e^{-r^2}. In r the integrand is smooth at
    0; in x = r^2 the conditional SEP has a sqrt(x) kink there. The
    conditional SEP falls off on the scale r0 = sqrt(4 v_max / d_min^2), for
    the largest disturbance variance and the smallest distance of the branch
    table, which is of order 1e-5 at 100 dB. ``integrate`` starts from panels
    broken at r0, 2 r0, 4 r0, ... up to r = 27.3, where e^{-r^2} underflows,
    and runs to 1e-12 relative with no absolute floor, so the SEP is
    resolved however small it is; each round is one ``_sep`` call over all
    its nodes.

    Independent of the closed-form path; used to certify ``sep_rayleigh``.
    Raises QuadratureError if the error estimate exceeds 1e-10 of the
    result, or if the result falls below SEP(r1) (1 - e^{-r1^2}) at the first
    breakpoint r1, a lower bound because the conditional SEP decreases in
    |h|: a collapse onto a tiny value cannot pass as a small SEP.
    """
    table = _branches(scenario)
    conditional = _conditional(scenario, table)
    r0 = math.sqrt(4.0 * float(table.variances.max())
                   / float(_squared_distances(scenario, table).min()))
    breaks = _doubling(r0, _MAGNITUDE_END)
    value, error = integrate(lambda r: conditional(r) * (2.0 * r) * np.exp(-r * r),
                             breaks, rtol=_ORACLE_RTOL)
    if not error <= _ORACLE_BUDGET * value:
        raise QuadratureError(
            f"fading average reached error {error:.3e} on {value:.3e} "
            f"(requested {_ORACLE_BUDGET:.0e} relative)")
    r1 = float(breaks[1])
    floor = conditional(r1) * -math.expm1(-r1 * r1)
    if value < floor * (1.0 - _ORACLE_BUDGET):
        raise QuadratureError(
            f"fading average {value:.3e} is below its lower bound {floor:.3e}")
    return value


# ---------------------------------------------------------------------------
# Decision-region quadrature, one axis at a time (oracle for sep_conditional)
# ---------------------------------------------------------------------------

def _region_1d(index: int, levels: int, spacing: float) -> tuple[float, float]:
    """Decision interval of one axis index, centered on its own point."""
    lo = -np.inf if index == 0 else -spacing / 2.0
    hi = np.inf if index == levels - 1 else spacing / 2.0
    return lo, hi


def _axis_error(levels: int, spacing: float, variance: float) -> tuple[float, float]:
    """N(0, variance) mass outside each level's decision interval, averaged
    over the levels of one axis, and its error estimate.

    Every interval is centered on its own point, so in standard deviations
    each tail starts c = spacing / (2 sqrt(variance)) from it and has mass
    e^{-c^2/2} int_0^inf e^{-u (c + u/2)} du / sqrt(2 pi) in the distance u
    beyond the boundary; factoring out e^{-c^2/2} keeps the large exponent
    out of the integrand's rounding. One ``integrate`` call serves every
    tail of the axis: its integrand decays from u = 0, panels break at
    u = s, 2 s, 4 s, ... on the tails' scale s = 1 / max(c, 1), and the rule
    cannot step over the mass. The tolerance is relative only: an absolute
    floor would let the rule stop on a tail far below it, and the oracle
    certifies tiny SEPs by relative gap.
    """
    tails = sum(math.isfinite(end) for index in range(levels)
                for end in _region_1d(index, levels, spacing))
    c = spacing / (2.0 * math.sqrt(variance))
    if tails == 0 or c >= _TAIL_END:  # one level, or no mass in the tails
        return 0.0, 0.0
    mass, err = integrate(lambda u: np.exp(-u * (c + 0.5 * u)),
                          _doubling(1.0 / max(c, 1.0), _TAIL_END - c), rtol=_ORACLE_RTOL)
    share = tails * math.exp(-0.5 * c * c) / (math.sqrt(2.0 * math.pi) * levels)
    return share * mass, share * err


def sep_general_numeric(scenario: Scenario, magnitude: float) -> float:
    """Conditional SEP by direct integration over every decision region.

    A region is a product of one interval per axis and every disturbance
    component is a circular Gaussian, so per component the error mass
    averaged over the points is E_I + E_Q - E_I E_Q, where E is an axis's
    out-of-interval tail mass averaged over its levels. Summing the tails,
    rather than subtracting the correct mass from 1, keeps the result
    accurate relative to a tiny SEP. Oracle for ``sep_conditional``,
    independent of its corner/edge/inner counting. Each axis and component
    costs one ``integrate`` call (``_axis_error``), to 1e-12 relative; raises
    QuadratureError if the error estimate, carried through each product by
    the product rule, exceeds 1e-10 of the result.
    """
    _check_magnitude(magnitude)
    noise = scenario.noise_variance
    disturbances = (((1.0, noise),),
                    scenario.interference.convolve_with_gaussian(noise).components)
    sep = err_total = 0.0
    for weight, post_idle, post_busy, decision in _branches(scenario).rows:
        spec = _spec(scenario, decision)
        spacing = spec.min_distance() * magnitude
        for post, components in zip((post_idle, post_busy), disturbances):
            for lam, variance in components:
                (e_i, err_i), (e_q, err_q) = (
                    _axis_error(levels, spacing, variance)
                    for levels in (spec.m_inphase, spec.m_quadrature))
                share = weight * post * lam
                sep += share * (e_i + e_q - e_i * e_q)
                err_total += share * (err_i + err_q + err_i * err_q)
    if not err_total <= _ORACLE_BUDGET * sep:
        raise QuadratureError(
            f"decision-region quadrature reached error {err_total:.3e} on {sep:.3e} "
            f"(requested {_ORACLE_BUDGET:.0e} relative)")
    return sep


# ---------------------------------------------------------------------------
# Power policies under interference constraints
# ---------------------------------------------------------------------------

def max_power_osa(constraints: ConstraintSet, p_detect: float) -> float:
    """Maximum idle-decision power under the average interference limit.

    min(P_pk, Q_avg / ((1 - P_d) E{|g|^2})); the second term is infinite at
    P_d = 1, where only the peak cap binds. ``p_detect`` must lie in [0, 1].
    """
    if constraints.avg_interference is None:
        raise ValueError("avg_interference constraint required")
    p_detect = _check_prob("p_detect", p_detect)
    if p_detect >= 1.0:
        return constraints.peak_power
    limit = constraints.avg_interference / (
        (1.0 - p_detect) * constraints.mean_gain_to_primary)
    return min(constraints.peak_power, limit)


def peak_power_policy(constraints: ConstraintSet, gain):
    """Instantaneous power cap min(P_pk, Q_pk / |g|^2) for gain realizations.

    Applies to both sensing decisions (the interference limit must hold even
    on miss-detections), so SSS uses the same level for P0 and P1. ``gain``
    is a scalar (a float comes back) or an array; a zero gain gets P_pk.
    """
    if constraints.peak_interference is None:
        raise ValueError("peak_interference constraint required")
    gain = np.asarray(gain, dtype=float)
    # min propagates NaN; the initial 0.0 admits an empty array
    if not np.min(gain, initial=0.0) >= 0:
        raise ValueError("gain must be nonnegative, not NaN")
    power = np.empty_like(gain)
    with np.errstate(divide="ignore"):
        np.divide(constraints.peak_interference, gain, out=power)
    np.minimum(power, constraints.peak_power, out=power)
    return float(power) if power.ndim == 0 else power


@dataclass(frozen=True)
class OptimalPowers:
    p0: float
    p1: float
    sep: float


def optimize_powers_sss(scenario: Scenario) -> OptimalPowers:
    """Minimize the SSS Rayleigh SEP over (P0, P1) under the constraints.

    ``scenario`` gives the grid, sensing, noise, mixture and constraints; the
    powers its specs carry are ignored. Subject to P0, P1 <= P_pk and the
    sensing-weighted average interference limit
    (1 - P_d) P0 E{|g|^2} + P_d P1 E{|g|^2} <= Q_avg. The SEP is strictly
    decreasing in each power, so the optimum sits on the upper boundary of the
    feasible set; a coarse scan along the active constraint segment brackets
    the best point and golden-section search refines it.

    Every SEP but the scan's runs on Python floats in ``_float_sep``, without
    numpy's per-call cost, bit for bit equal to ``_sep``, since one ulp moves
    the golden p0* by up to ~1e-8 (ROADMAP item 2): it keeps the IEEE operation
    order (2/pi/beta, not (2/pi)(1/beta)) and ``np.arctan``, from which
    ``math.atan`` differs in the last bit for ~0.3% of arguments.
    """
    if scenario.scheme is not Scheme.SSS:
        raise ValueError("the power optimizer needs an SSS scenario")
    constraints = scenario.constraints
    if constraints is None or constraints.avg_interference is None:
        raise ValueError("avg_interference constraint required")
    ppk = constraints.peak_power
    budget = constraints.avg_interference / constraints.mean_gain_to_primary
    p_d = scenario.sensing.p_detect
    floor = min(ppk * _POWER_FLOOR_REL, budget / 2.0)
    table = _branches(scenario)
    sep_of = _float_sep(table)

    # Constraint inactive at the corner: both powers at the peak.
    if ppk <= budget:
        return OptimalPowers(ppk, ppk, float(sep_of(ppk, ppk)))

    if p_d == 0.0:
        p0 = min(ppk, budget)
        return OptimalPowers(p0, ppk, float(sep_of(p0, ppk)))
    if p_d == 1.0:
        p1 = min(ppk, budget)
        return OptimalPowers(ppk, p1, float(sep_of(ppk, p1)))

    # Active segment: P1 = (budget - (1 - P_d) P0) / P_d, clipped to [floor, P_pk];
    # P1 = P_pk up to P0 = p0_at_ppk, where the formula cancels at tiny P_d.
    p0_at_ppk = (budget - p_d * ppk) / (1.0 - p_d)
    p0_min = max(floor, p0_at_ppk)
    p0_max = min(ppk, (budget - p_d * floor) / (1.0 - p_d))

    def p1_of(p0):
        return ppk if p0 <= p0_at_ppk else min(ppk, max(floor, (budget - (1.0 - p_d) * p0) / p_d))

    grid = np.linspace(p0_min, p0_max, 513)
    p1s = np.where(grid <= p0_at_ppk, ppk, np.clip((budget - (1.0 - p_d) * grid) / p_d, floor, ppk))
    values = _sep(table, _rayleigh_term, _powers(table, grid, p1s), False)
    best = int(np.argmin(values))
    a = float(grid[max(best - 1, 0)])
    b = float(grid[min(best + 1, len(grid) - 1)])

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = sep_of(c, p1_of(c)), sep_of(d, p1_of(d))
    for _ in range(90):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = sep_of(c, p1_of(c))
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = sep_of(d, p1_of(d))
    p0_star = (a + b) / 2.0
    candidates = [p0_star, p0_min, p0_max]
    p0_best = min(candidates, key=lambda p: sep_of(p, p1_of(p)))
    p1_best = p1_of(p0_best)
    return OptimalPowers(float(p0_best), float(p1_best), float(sep_of(p0_best, p1_best)))


# ---------------------------------------------------------------------------
# Peak-interference constrained averages over the gain |g|^2 ~ Exp(1)
# ---------------------------------------------------------------------------

def _peak_split(scenario: Scenario, bound: bool) -> tuple[_Table, float, float, float]:
    """The peak policy's collapsed table, b1 = Q_pk / P_pk, Q_pk and the head
    (1 - e^{-b1}) f(P_pk) where the cap binds, f the Rayleigh SEP (the bound
    or the exact form). Each caller adds its own tail over |g|^2 > b1."""
    if scenario.power_policy != "peak_interference":  # Scenario checks the constraint
        raise ValueError("scenario needs the peak_interference power policy")
    ppk, qpk = scenario.constraints.peak_power, scenario.constraints.peak_interference
    b1 = qpk / ppk
    table = _branches(scenario, collapse=True)
    head = (1.0 - math.exp(-b1)) * float(_sep(table, _rayleigh_term, [ppk], bound))
    return table, b1, qpk, head


def sep_peak_interference(scenario: Scenario) -> float:
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
    """
    table, b1, qpk, capped = _peak_split(scenario, bound=True)
    return float(capped + table.c1 * _sep(table, _peak_tail, [qpk], b1))


# e^{-y} underflows past y = 745: no gain mass lies beyond it.
_GAIN_END = 745.0


def _gain_average(scenario: Scenario, bound: bool) -> float:
    """(1 - e^{-b1}) f(P_pk) + int_{b1}^inf f(Q_pk / y) e^{-y} dy by ``integrate``.

    f is the Rayleigh SEP (the bound or the exact form) at a
    decision-independent power, over the collapsed branch table. This is the
    quadrature oracle of both peak-policy averages: of the closed-form bound
    ``sep_peak_interference`` and of the fixed rule in
    ``sep_peak_interference_exact``. No engine calls it.

    Panels break at b1, where the cap stops binding, and at b1 + 1, b1 + 10
    and b1 + 50 on the scale of e^{-y}, up to y = 745, where it underflows;
    each round of the rule is one ``_sep`` call over all its nodes. The
    tolerance is 1e-12 absolute or 1e-10 relative: f, the closed-form
    Rayleigh term, is itself noisy at ~1e-10 relative at P_pk = Q_pk = 60 dB,
    so a relative-only 1e-12 rule runs out of panels there (ROADMAP item 1).
    Raises QuadratureError if the error estimate exceeds 1e-8.
    """
    table, b1, qpk, head = _peak_split(scenario, bound)
    if b1 >= _GAIN_END:
        return head
    breaks = [y for y in b1 + np.array([0.0, 1.0, 10.0, 50.0]) if y < _GAIN_END]
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


def sep_peak_interference_exact(scenario: Scenario) -> float:
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
    bitwise-independent of the sensing quality.
    """
    table, b1, qpk, head = _peak_split(scenario, bound=False)
    tail = _sep(table, _rayleigh_term, [qpk / (b1 + _EXP_SINH_NODES)], False)
    return head + math.exp(-b1) * float(_EXP_SINH_WEIGHTS @ tail)
