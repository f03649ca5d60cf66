"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest perfbench -q

They are not part of the tier-1 suite (``testpaths`` is ``tests``).
"""

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from cogsep.experiment import ResultRow  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    DECLARED = json.load(_fh)


def _reference_rows(preset: str) -> list:
    return [ResultRow(ref["sweep_value"], None, None, ref["sep_analytic"],
                      ref["sep_bound"], None, None, None, None)
            for ref in checks.load_reference()[preset]]


@pytest.mark.parametrize("column", ["sep_analytic", "sep_bound"])
def test_reference_check_rejects_1e9_relative_perturbation(column):
    reference = checks.load_reference()
    rows = _reference_rows("fig3")
    engines = ("analytic", "bound")
    assert checks.check_sweep_rows("fig3", rows, engines, reference, 1e-8) == [None] * len(rows)

    rows[5] = replace(rows[5], **{column: getattr(rows[5], column) * (1.0 + 1e-9)})
    failures = checks.check_sweep_rows("fig3", rows, engines, reference, 1e-8)
    assert failures[5] is not None and column in failures[5]
    assert failures[:5] + failures[6:] == [None] * (len(rows) - 1)


def test_mc_check_accepts_the_expected_count_and_rejects_a_biased_one():
    reference = checks.load_reference()
    p = reference["fig2"][0]["sep_analytic"]
    trials = 122_000
    engines = ("analytic", "monte_carlo")

    def rows_with(errors):
        rows = _reference_rows("fig2")
        rows[0] = replace(rows[0], sep_mc=errors / trials, trials=trials)
        for i in range(1, len(rows)):
            q = reference["fig2"][i]["sep_analytic"]
            rows[i] = replace(rows[i], sep_mc=round(q * trials) / trials, trials=trials)
        return rows

    fair = checks.check_sweep_rows("fig2", rows_with(round(p * trials)), engines,
                                   reference, 1e-8)
    assert fair == [None] * len(fair)
    biased = checks.check_sweep_rows("fig2", rows_with(round(1.05 * p * trials)), engines,
                                     reference, 1e-8)
    assert biased[0] is not None and "MC" in biased[0]


def test_workload_names_match_benchmark_json():
    assert list(workloads.WORKLOAD_NAMES) == [w["name"] for w in DECLARED["workloads"]]


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, kind):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "analytic-sweep",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in DECLARED[kind]}
    if trace:
        values = {name: metric["value"] for name, metric in result["metrics"].items()}
        self_times = sum(value for name, value in values.items()
                         if name.endswith((".s", ".self_s")))
        assert self_times == pytest.approx(values["trace.wall_s"], rel=1e-9)
