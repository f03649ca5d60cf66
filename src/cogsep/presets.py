"""Built-in parameter presets for the standard experiment sweeps.

The shared operating point: per-axis noise variance 0.01, a four-component
equal-weight interference mixture with per-axis variances (0.2, 0.4, 0.6,
0.8) totalling 0.5, channel busy prior 0.4, sensing pair (P_d, P_f) = (0.9, 0.05), peak transmit
power 4 dB, average interference limit -10 dB, and peak interference limits
of 4 dB or 0 dB depending on the sweep.
"""

from .experiment import ExperimentConfig, SweepSpec
from .analytic import Scheme
from .mathcore import GaussianMixture
from .sensing import SensingModel

__all__ = [
    "PRESET_NAMES",
    "default_mixture",
    "default_sensing",
    "figure_preset",
]

MIXTURE_WEIGHTS = (0.25, 0.25, 0.25, 0.25)
MIXTURE_VARIANCES = (0.2, 0.4, 0.6, 0.8)
NOISE_VARIANCE = 0.01
PRIOR_BUSY = 0.4
P_DETECT = 0.9
P_FALSE_ALARM = 0.05
P_PK_DB = 4.0
Q_AVG_DB = -10.0

PRESET_NAMES = tuple(f"fig{i}" for i in range(1, 9))


def default_mixture() -> GaussianMixture:
    """Four-component interference mixture with per-axis total variance 0.5."""
    return GaussianMixture.from_lists(MIXTURE_WEIGHTS, MIXTURE_VARIANCES)


def default_sensing() -> SensingModel:
    return SensingModel(P_DETECT, P_FALSE_ALARM, PRIOR_BUSY)


def _base(scheme: Scheme, sweep: SweepSpec, *, q_avg_db=None, q_pk_db=None,
          modulation=(2, 2)) -> ExperimentConfig:
    return ExperimentConfig(
        scheme=scheme,
        m_inphase=modulation[0],
        m_quadrature=modulation[1],
        p_detect=P_DETECT,
        p_false_alarm=P_FALSE_ALARM,
        prior_busy=PRIOR_BUSY,
        noise_variance=NOISE_VARIANCE,
        mixture_weights=MIXTURE_WEIGHTS,
        mixture_variances=MIXTURE_VARIANCES,
        p_pk_db=P_PK_DB,
        q_avg_db=q_avg_db,
        q_pk_db=q_pk_db,
        sweep=sweep,
        engines=("analytic", "bound", "monte_carlo"),
    )


def figure_preset(name: str) -> ExperimentConfig:
    """Sweep presets fig1..fig8.

    fig1/fig2: SEP vs average interference limit (SSS / OSA).
    fig3/fig4: SEP vs P_d / P_f under the average interference limit (SSS;
    flip the scheme for the OSA companion curves).
    fig5/fig6: SEP vs peak power under a 4 dB peak interference limit
    (SSS / OSA). fig7/fig8: SEP vs P_d / P_f under a 0 dB peak limit (SSS).
    """
    presets = {
        "fig1": lambda: _base(
            Scheme.SSS, SweepSpec("q_avg_db", -20.0, 6.0, 1.0), q_avg_db=Q_AVG_DB),
        "fig2": lambda: _base(
            Scheme.OSA, SweepSpec("q_avg_db", -20.0, 6.0, 1.0), q_avg_db=Q_AVG_DB),
        "fig3": lambda: _base(
            Scheme.SSS, SweepSpec("p_detect", 0.5, 1.0, 0.025), q_avg_db=Q_AVG_DB),
        "fig4": lambda: _base(
            Scheme.SSS, SweepSpec("p_false_alarm", 0.0, 1.0, 0.05), q_avg_db=Q_AVG_DB),
        "fig5": lambda: _base(
            Scheme.SSS, SweepSpec("p_pk_db", -5.0, 15.0, 1.0), q_pk_db=4.0),
        "fig6": lambda: _base(
            Scheme.OSA, SweepSpec("p_pk_db", -5.0, 15.0, 1.0), q_pk_db=4.0),
        "fig7": lambda: _base(
            Scheme.SSS, SweepSpec("p_detect", 0.5, 1.0, 0.025), q_pk_db=0.0),
        "fig8": lambda: _base(
            Scheme.SSS, SweepSpec("p_false_alarm", 0.0, 1.0, 0.05), q_pk_db=0.0),
    }
    try:
        return presets[name]()
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
