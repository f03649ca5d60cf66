"""Correctness checks applied to every pass.

- ``analytic`` and ``bound`` columns match the full-precision values recorded
  at the seed commit (``reference.json``) within 1e-12 relative, the ROADMAP
  gate for any speedup.
- Every Monte Carlo row passes an exact two-sided binomial test against
  ``sep_analytic`` at a Bonferroni level, so the chance that a correct engine
  fails a workload's check is at most ``MC_FAMILY_ALPHA``. The check never
  compares stored MC values, so a new, versioned draw contract still passes.
- Oracle gaps stay within the acceptance-gate tolerances.
"""

import json
import math
import os

from scipy.special import bdtr, bdtrc

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
REFERENCE_REL_TOL = 1e-12
# False-failure probability of the MC check over all rows of one pass.
MC_FAMILY_ALPHA = 1e-6


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def rel_gap(value: float, reference: float) -> float:
    if value == reference:
        return 0.0
    return abs(value - reference) / max(abs(reference), 1e-300)


def binomial_p_value(errors: int, trials: int, p: float) -> float:
    """Exact two-sided p-value of ``errors`` in ``trials`` at error rate ``p``."""
    lower = bdtr(errors, trials, p)
    upper = 1.0 if errors == 0 else bdtrc(errors - 1, trials, p)
    return min(1.0, 2.0 * min(lower, upper))


def check_sweep_rows(preset: str, rows: list, engines: tuple, reference: dict,
                     mc_row_alpha: float) -> list:
    """One failure message (or None) per reference row of one preset."""
    expected = reference[preset]
    if len(rows) != len(expected):
        return [f"{preset}: {len(rows)} rows, reference has {len(expected)}"] * len(expected)
    return [_check_row(preset, row, ref, engines, mc_row_alpha)
            for row, ref in zip(rows, expected)]


def _check_row(preset, row, ref, engines, mc_row_alpha):
    where = f"{preset} at {row.sweep_value:g}"
    scale = max(1.0, abs(ref["sweep_value"]))
    if abs(row.sweep_value - ref["sweep_value"]) > REFERENCE_REL_TOL * scale:
        return f"{where}: sweep value differs from reference {ref['sweep_value']!r}"
    for engine, column in (("analytic", "sep_analytic"), ("bound", "sep_bound")):
        if engine not in engines:
            continue
        value = getattr(row, column)
        if value is None:
            return f"{where}: empty {column}"
        gap = rel_gap(value, ref[column])
        if gap > REFERENCE_REL_TOL:
            return f"{where}: {column} {value!r} is {gap:.2e} relative from {ref[column]!r}"
    if "monte_carlo" in engines:
        if row.sep_mc is None or row.trials is None:
            return f"{where}: empty Monte Carlo columns"
        p = ref["sep_analytic"]
        errors = round(row.sep_mc * row.trials)
        p_value = binomial_p_value(errors, row.trials, p)
        if p_value < mc_row_alpha:
            z = (row.sep_mc - p) / math.sqrt(p * (1.0 - p) / row.trials)
            return (f"{where}: MC {row.sep_mc!r} vs analytic {p!r} (z = {z:.2f}, "
                    f"p = {p_value:.2e} < {mc_row_alpha:.2e})")
    return None


def max_abs_z(rows: list, rates: list) -> float:
    """Largest |z| of MC rows against their analytic rates, for the report."""
    worst = 0.0
    for row, p in zip(rows, rates):
        worst = max(worst, abs(row.sep_mc - p) / math.sqrt(p * (1.0 - p) / row.trials))
    return worst


def check_oracle(kind: str, closed: float, oracle: float, tolerance: float):
    gap = abs(closed - oracle)
    if gap > tolerance:
        return (f"{kind}: closed form {closed!r} vs oracle {oracle!r}, "
                f"gap {gap:.2e} > {tolerance:.0e}")
    return None
