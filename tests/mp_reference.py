"""High-precision mpmath forms that certify cogsep's double-precision numerics.

Every form works at ``DIGITS`` significant digits and returns an
``mpmath.mpf``; none calls the closed forms or quadrature rules it certifies.
Only the tests import this module, so ``import cogsep`` never loads mpmath.
"""

import mpmath

from cogsep.analytic import Scenario, _branches, _require_peak

DIGITS = 40


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
             for weight, v in zip(weights, table.variances.tolist())]

    def sep(power):
        total = constant
        for scale, linear, arctan in terms:
            x = 1 / mp.sqrt(1 + scale / power)
            total += x * (linear - arctan * mp.atan(x))
        return total

    return sep


def peak_exact(scenario: Scenario):
    """Peak-policy exact SEP: (1 - e^{-b1}) f(P_pk) + int_{b1}^inf f(Q_pk/y) e^{-y} dy.

    f is ``rayleigh_sep`` over the collapsed branch table and b1 = Q_pk/P_pk.
    The integral runs by mpmath's tanh-sinh quadrature, split at b1 + 1,
    b1 + 10 and b1 + 50 so that the integrand's scale near b1 and the decay of
    e^{-y} each get their own panels.
    """
    ppk, qpk = _require_peak(scenario)
    table = _branches(scenario, collapse=True)
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
