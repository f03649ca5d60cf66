"""Spectrum-sensing reliability model: detection/false-alarm probabilities,
channel-occupancy priors, and the posteriors the error-rate formulas consume.

Its inputs are checked by ``mathcore._check_prob``: every model-input rule
lives in ``mathcore``, and this module defines none.
"""

from dataclasses import dataclass
from enum import IntEnum

from .mathcore import _check_prob

__all__ = ["Occupancy", "SensingModel", "ConditioningError"]


class Occupancy(IntEnum):
    """Channel state / sensing decision: 0 = idle, 1 = busy."""

    IDLE = 0
    BUSY = 1


class ConditioningError(ValueError):
    """Conditioning on a zero-probability sensing decision."""


@dataclass(frozen=True)
class SensingModel:
    """Sensing performance triple: P_d, P_f, and the prior busy probability.

    ``p_detect`` is the probability of declaring a truly busy channel busy;
    ``p_false_alarm`` is the probability of declaring a truly idle channel
    busy; ``prior_busy`` is the probability the channel is actually occupied.
    """

    p_detect: float
    p_false_alarm: float
    prior_busy: float

    def __post_init__(self) -> None:
        for name in ("p_detect", "p_false_alarm", "prior_busy"):
            object.__setattr__(self, name, _check_prob(name, getattr(self, name)))

    @property
    def prior_idle(self) -> float:
        return 1.0 - self.prior_busy

    def posteriors(self, decision: Occupancy) -> tuple[float, float, float]:
        """Pr{decision} and the Bayes posteriors Pr{idle | decision} and
        Pr{busy | decision}, from Pr{busy decision} = prior_busy P_d +
        prior_idle P_f and its complement: the one statement of Bayes' rule."""
        p_busy = self.prior_busy * self.p_detect + self.prior_idle * self.p_false_alarm
        if decision == Occupancy.BUSY:
            denom, given_idle, given_busy = p_busy, self.p_false_alarm, self.p_detect
        else:
            denom, given_idle, given_busy = (1.0 - p_busy, 1.0 - self.p_false_alarm,
                                             1.0 - self.p_detect)
        if denom <= 0.0:
            raise ConditioningError(
                f"decision {decision.name} has probability 0; posterior undefined"
            )
        return denom, self.prior_idle * given_idle / denom, self.prior_busy * given_busy / denom
