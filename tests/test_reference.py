"""Presets fig1..fig8 against the recorded analytic and bound columns.

``perfbench/reference.json`` holds the full-precision values the benchmark
checks a sweep against; this test holds the closed forms to the same 1e-12
relative gate, so a drift fails here before it reaches the benchmark. The
file is only read.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from cogsep.experiment import run_experiment
from cogsep.presets import PRESET_NAMES, figure_preset

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
REL_TOL = 1e-12


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_analytic_and_bound_match_reference(name, reference):
    rows = run_experiment(replace(figure_preset(name), engines=("analytic", "bound")))
    expected = reference[name]
    assert len(rows) == len(expected)
    for row, ref in zip(rows, expected):
        assert row.sweep_value == pytest.approx(ref["sweep_value"], rel=REL_TOL)
        for column in ("sep_analytic", "sep_bound"):
            assert getattr(row, column) == pytest.approx(ref[column], rel=REL_TOL, abs=0.0), (
                f"{name} at {row.sweep_value:g}: {column}")
