"""Workload inputs and one pass of each workload.

Sweep workloads take the path ``cogsep preset`` takes: ``figure_preset`` ->
``run_experiment``, which writes CSV and JSON. ``oracle-certify`` calls the
oracles' public functions against the closed forms they certify. Every call
into cogsep goes through the module attribute (``experiment.run_experiment``,
``analytic.sep_rayleigh_numeric``, ...) so that the tracer's wrappers see it.
"""

import os
from dataclasses import dataclass, replace

import numpy as np

from cogsep import analytic, experiment
from cogsep.analytic import ConstraintSet, Scenario, Scheme
from cogsep.mathcore import QuadratureError
from cogsep.modulation import ConstellationSpec
from cogsep.presets import PRESET_NAMES, default_mixture, default_sensing, figure_preset
from cogsep.sensing import SensingModel

MC_PRESETS = ("fig1", "fig2", "fig5")  # SSS average limit, OSA skips, peak-policy gain draw


@dataclass(frozen=True)
class SweepWorkload:
    presets: tuple[str, ...]
    engines: tuple[str, ...]
    workers: int


@dataclass(frozen=True)
class OracleCase:
    """One closed form / oracle comparison; ``magnitude`` is set for "region" only."""

    kind: str  # "fading", "region" or "peak"
    scenario: Scenario
    magnitude: float | None = None


SWEEPS = {
    "analytic-sweep": SweepWorkload(PRESET_NAMES, ("analytic", "bound"), 1),
    "mc-sweep": SweepWorkload(MC_PRESETS, ("analytic", "monte_carlo"), 1),
    "mc-sweep-w2": SweepWorkload(MC_PRESETS, ("analytic", "monte_carlo"), 2),
}
WORKLOAD_NAMES = (*SWEEPS, "oracle-certify")

# Acceptance-gate tolerances (tests/test_acceptance.py, criteria 2 and 5).
ORACLE_TOLERANCE = {"fading": 1e-6, "region": 1e-8, "peak": 1e-6}

_P_4DB = 10.0 ** 0.4


def sweep_configs(workload: str, seed: int, outdir: str) -> dict:
    """Preset configs of a sweep workload, writing CSV and JSON under ``outdir``."""
    spec = SWEEPS[workload]
    return {
        name: replace(figure_preset(name), engines=spec.engines, seed=seed,
                      output_path=os.path.join(outdir, f"{name}.csv"),
                      json_path=os.path.join(outdir, f"{name}.json"))
        for name in spec.presets
    }


def _scenario(scheme, modulation, p0, p1=None, sensing=None, constraints=None,
              power_policy="fixed") -> Scenario:
    mi, mq = modulation
    return Scenario(
        scheme=scheme,
        spec_idle=ConstellationSpec(mi, mq, p0),
        spec_busy=ConstellationSpec(mi, mq, p1) if scheme is Scheme.SSS else None,
        sensing=sensing or default_sensing(),
        noise_variance=0.01,
        interference=default_mixture(),
        constraints=constraints or ConstraintSet(peak_power=_P_4DB, avg_interference=0.1),
        power_policy=power_policy,
    )


def oracle_cases(seed: int) -> list[OracleCase]:
    """The certification grid of the acceptance gate, thinned and jittered by ``seed``.

    Powers move by up to +-0.1 decades, magnitudes by up to +-20% and the peak
    grid by up to +-1 dB, so a claim can be re-checked on grids it was not
    tuned on.
    """
    rng = np.random.default_rng(seed)
    cases = []
    powers = 10.0 ** (np.linspace(-1.0, 1.4, 6) + rng.uniform(-0.1, 0.1, 6))
    for modulation in ((2, 1), (4, 1), (2, 2), (8, 2)):
        for p in powers:
            p = float(p)
            cases.append(OracleCase("fading", _scenario(Scheme.SSS, modulation, p, p)))
            cases.append(OracleCase("fading", _scenario(Scheme.OSA, modulation, p)))

    noisy = SensingModel(0.7, 0.3, 0.4)
    region_points = (  # (modulation, scheme, sensing, power, |h|)
        ((2, 1), Scheme.SSS, noisy, 1.0, 1.0),
        ((4, 1), Scheme.OSA, default_sensing(), 2.5119, 1.2),
        ((2, 2), Scheme.SSS, default_sensing(), 1.0, 0.5),
        ((8, 2), Scheme.SSS, noisy, 2.5119, 1.0),
    )
    for modulation, scheme, sensing, power, magnitude in region_points:
        power *= float(10.0 ** rng.uniform(-0.1, 0.1))
        magnitude *= float(rng.uniform(0.8, 1.2))
        p1 = 0.6 * power if scheme is Scheme.SSS else None
        cases.append(OracleCase(
            "region", _scenario(scheme, modulation, power, p1, sensing=sensing), magnitude))

    ppk_grid = np.array([-4.0, 4.0, 12.0]) + rng.uniform(-1.0, 1.0, 3)
    qpk_grid = np.array([-10.0, 0.0, 10.0]) + rng.uniform(-1.0, 1.0, 3)
    for scheme, modulation in ((Scheme.SSS, (2, 2)), (Scheme.OSA, (8, 1))):
        for ppk_db in ppk_grid:
            for qpk_db in qpk_grid:
                ppk = float(10.0 ** (ppk_db / 10.0))
                constraints = ConstraintSet(peak_power=ppk,
                                            peak_interference=float(10.0 ** (qpk_db / 10.0)))
                cases.append(OracleCase("peak", _scenario(
                    scheme, modulation, ppk, ppk, constraints=constraints,
                    power_policy="peak_interference")))
    return cases


def build(workload: str, seed: int, outdir: str):
    """The inputs one pass of ``workload`` consumes."""
    if workload == "oracle-certify":
        return oracle_cases(seed)
    return sweep_configs(workload, seed, outdir)


@dataclass
class SweepResult:
    rows: list | None
    error: str | None = None


def run_sweep_pass(configs: dict, workers: int, tracer, label: str) -> dict:
    """Run every preset; returns {preset: SweepResult}."""
    results = {}
    for name, config in configs.items():
        tracer.group = f"{label}/{name}"
        try:
            rows = experiment.run_experiment(config, workers=workers)
        except (RuntimeError, ValueError, ArithmeticError) as exc:
            results[name] = SweepResult(None, f"{type(exc).__name__}: {exc}")
        else:
            results[name] = SweepResult(rows)
    return results


@dataclass
class OracleResult:
    closed: float | None
    oracle: float | None
    error: str | None = None


_CLOSED_FORMS = {"fading": "sep_rayleigh", "region": "sep_conditional",
                 "peak": "sep_peak_interference"}
_ORACLES = {"fading": "sep_rayleigh_numeric", "region": "sep_general_numeric",
            "peak": "sep_peak_interference_oracle"}


def run_oracle_pass(cases: list, tracer, label: str) -> list:
    """Evaluate each closed form and its oracle; returns one OracleResult per case."""
    results = []
    for index, case in enumerate(cases):
        tracer.group = f"{label}/{case.kind}/{index}"
        args = (case.scenario,) if case.magnitude is None else (case.scenario, case.magnitude)
        try:
            with tracer.span("analytic.closed_form"):
                closed = getattr(analytic, _CLOSED_FORMS[case.kind])(*args)
            oracle = getattr(analytic, _ORACLES[case.kind])(*args)
        except (QuadratureError, ValueError, ArithmeticError) as exc:
            results.append(OracleResult(None, None, f"{type(exc).__name__}: {exc}"))
        else:
            results.append(OracleResult(closed, oracle))
    return results
