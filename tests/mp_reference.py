"""High-precision mpmath forms that certify cogsep's double-precision numerics.

Every form returns an ``mpmath.mpf``; none calls the closed forms,
quadrature rules or branch tables it certifies. ``branch_table`` builds the
sensing branches by Bayes' rule from the SensingModel's three fields, and
every SEP form here weighs its branches by it. The peak-policy form works at
``DIGITS`` significant digits, the fading and conditional forms at
``TAIL_DIGITS``, which leave ~35 digits where a 120 dB SEP of 1e-13 cancels
against terms of order 1. Only the tests import this module, so ``import
cogsep`` never loads mpmath.
"""

from typing import NamedTuple

import mpmath

from cogsep.analytic import Scenario, Scheme
from cogsep.sensing import ConditioningError, Occupancy

DIGITS = 40
TAIL_DIGITS = 50
IDLE, BUSY = Occupancy.IDLE, Occupancy.BUSY


class Table(NamedTuple):
    """A scenario's branch table in mpmath: ``rows`` of (weight, post_idle,
    post_busy, decision), the mixture weights ``lam`` and the variances
    [s0, s0 + s_1, ..., s0 + s_L]."""

    rows: list
    lam: list
    variances: list


def joint(sensing) -> dict:
    """Pr{state, decision} = prior(state) Pr{decision | state}, keyed by
    (state, decision), from P_d, P_f and the busy prior, at ``TAIL_DIGITS``."""
    with mpmath.workdps(TAIL_DIGITS):
        busy = mpmath.mpf(sensing.prior_busy)
        prior = {IDLE: 1 - busy, BUSY: busy}
        says_busy = {IDLE: mpmath.mpf(sensing.p_false_alarm), BUSY: mpmath.mpf(sensing.p_detect)}
        return {(state, decision): prior[state] * (says_busy[state] if decision is BUSY
                                                   else 1 - says_busy[state])
                for state in (IDLE, BUSY) for decision in (IDLE, BUSY)}


def branch_table(scenario: Scenario) -> Table:
    """The branch table by Bayes' rule, at ``TAIL_DIGITS``.

    Pr{decision} sums ``joint`` over the states, and Pr{state | decision} is
    the joint over it. SSS weighs each decision of positive probability by
    that probability; OSA transmits on the idle decision alone, with weight
    1, and raises ConditioningError where it has probability 0. Under the
    peak policy, SSS is one idle-decision row of weight 1 whose posteriors
    are the joint summed over both decisions: the priors, by total
    probability.
    """
    cells = joint(scenario.sensing)
    with mpmath.workdps(TAIL_DIGITS):
        if scenario.power_policy == "peak_interference" and scenario.scheme is Scheme.SSS:
            rows = [(mpmath.mpf(1), *(cells[state, IDLE] + cells[state, BUSY]
                                      for state in (IDLE, BUSY)), IDLE)]
        else:
            rows = []
            osa = scenario.scheme is Scheme.OSA
            for decision in (IDLE,) if osa else (IDLE, BUSY):
                p = cells[IDLE, decision] + cells[BUSY, decision]
                if p == 0:
                    if osa:
                        raise ConditioningError(f"decision {decision.name} has probability 0")
                    continue
                rows.append((mpmath.mpf(1) if osa else p, cells[IDLE, decision] / p,
                             cells[BUSY, decision] / p, decision))
        noise = mpmath.mpf(scenario.noise_variance)
        components = scenario.interference.components
        return Table(rows, [mpmath.mpf(lam) for lam, _ in components],
                     [noise] + [noise + mpmath.mpf(v) for _, v in components])


def _spec(scenario: Scenario, decision):
    return scenario.spec_busy if decision is BUSY else scenario.spec_idle


def rayleigh_sep(table, mi: int, mq: int):
    """Exact Rayleigh-averaged SEP as a function of one decision-independent power.

    sum_b w_b (post_idle_b g(s0) + post_busy_b sum_l lambda_l g(s0 + s_l)) with
    g(v) = c_Q (1 - x) - c_Q2 ((2/pi) x atan(x) - x + 1/2), x = 1/beta,
    beta = sqrt(1 + 2 K v / (3 P)), K = M_I^2 + M_Q^2 - 2,
    c_Q = 2 - 1/M_I - 1/M_Q and c_Q2 = 2 (1 - 1/M_I)(1 - 1/M_Q).

    The branch weights are folded per variance into the constant, the x and
    the x atan(x) coefficients once, outside the returned function, which
    quadrature calls thousands of times. Call both under
    ``mpmath.workdps(DIGITS)``: where the SEP is small the constant cancels
    against the x terms, and 40 digits leave far more than the tests need.
    """
    mp = mpmath.mp
    c_q = 2 - mp.mpf(1) / mi - mp.mpf(1) / mq
    c_q2 = 2 * (1 - mp.mpf(1) / mi) * (1 - mp.mpf(1) / mq)
    weights = [mp.mpf(0)] * len(table.variances)
    for weight, post_idle, post_busy, _ in table.rows:
        weights[0] += mp.mpf(weight) * mp.mpf(post_idle)
        for index, lam in enumerate(table.lam, start=1):
            weights[index] += mp.mpf(weight) * mp.mpf(post_busy) * mp.mpf(lam)
    constant = mp.fsum(weights) * (c_q - c_q2 / 2)
    terms = [(2 * (mi * mi + mq * mq - 2) * mp.mpf(v) / 3,  # 2 K v / 3
              weight * (c_q2 - c_q), weight * 2 * c_q2 / mp.pi)
             for weight, v in zip(weights, table.variances)]

    def sep(power):
        total = constant
        for scale, linear, arctan in terms:
            x = 1 / mp.sqrt(1 + scale / power)
            total += x * (linear - arctan * mp.atan(x))
        return total

    return sep


def peak_exact(scenario: Scenario):
    """Peak-policy exact SEP: (1 - e^{-b1}) f(P_pk) + int_{b1}^inf f(Q_pk/y) e^{-y} dy.

    f is ``rayleigh_sep`` over ``branch_table``, whose SSS rows the peak
    policy collapses onto the priors, and b1 = Q_pk/P_pk.
    The integral runs by mpmath's tanh-sinh quadrature, split at b1 + 1,
    b1 + 10 and b1 + 50 so that the integrand's scale near b1 and the decay of
    e^{-y} each get their own panels.
    """
    ppk, qpk = scenario.constraints.peak_power, scenario.constraints.peak_interference
    table = branch_table(scenario)
    mi, mq = scenario.m_inphase, scenario.m_quadrature
    with mpmath.workdps(DIGITS):
        mp = mpmath.mp
        ppk, qpk = mp.mpf(ppk), mp.mpf(qpk)
        b1 = qpk / ppk
        sep = rayleigh_sep(table, mi, mq)
        head = -mp.expm1(-b1) * sep(ppk)
        tail = mp.quad(lambda y: sep(qpk / y) * mp.exp(-y),
                       [b1, b1 + 1, b1 + 10, b1 + 50, mp.inf])
        return head + tail


def fading_sep(scenario: Scenario):
    """Rayleigh-averaged SEP of a fixed-power scenario at ``TAIL_DIGITS``.

    ``rayleigh_sep`` per sensing branch, at that branch's own power, summed.
    """
    table = branch_table(scenario)
    mi, mq = scenario.m_inphase, scenario.m_quadrature
    with mpmath.workdps(TAIL_DIGITS):
        return mpmath.fsum(
            rayleigh_sep(table._replace(rows=[row]), mi, mq)(
                mpmath.mpf(_spec(scenario, row[3]).power))
            for row in table.rows)


def conditional_sep(scenario: Scenario, magnitude: float):
    """SEP given the fading magnitude |h| at ``TAIL_DIGITS``.

    Per branch and disturbance variance v, the error mass of a circular
    Gaussian over the rectangular regions is E_I + E_Q - E_I E_Q with
    E = 2 (1 - 1/M) Q(d |h| / (2 sqrt(v))) per axis of M levels.
    """
    table = branch_table(scenario)
    with mpmath.workdps(TAIL_DIGITS):
        mp = mpmath.mp
        total = mp.mpf(0)
        for weight, post_idle, post_busy, decision in table.rows:
            half = mp.mpf(_spec(scenario, decision).min_distance()) * mp.mpf(magnitude) / 2
            shares = [mp.mpf(post_idle)] + [mp.mpf(post_busy) * mp.mpf(lam) for lam in table.lam]
            for share, v in zip(shares, table.variances):
                q = mp.erfc(half / mp.sqrt(2 * mp.mpf(v))) / 2
                e_i, e_q = (2 * (1 - mp.mpf(1) / m) * q
                            for m in (scenario.m_inphase, scenario.m_quadrature))
                total += mp.mpf(weight) * share * (e_i + e_q - e_i * e_q)
        return total
