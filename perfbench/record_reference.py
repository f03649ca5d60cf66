"""Record the full-precision analytic and bound columns of presets fig1..fig8.

Run from the repository root on the commit whose values are the reference:

    PYTHONPATH=src python3 perfbench/record_reference.py

It rewrites ``perfbench/reference.json``. JSON floats round-trip exactly, so
the stored values are the doubles ``run_experiment`` returned.
"""

import json
from dataclasses import replace

from cogsep.experiment import run_experiment
from cogsep.presets import PRESET_NAMES, figure_preset

from checks import REFERENCE_PATH


def main() -> None:
    reference = {}
    for name in PRESET_NAMES:
        rows = run_experiment(replace(figure_preset(name), engines=("analytic", "bound")))
        reference[name] = [
            {"sweep_value": row.sweep_value, "sep_analytic": row.sep_analytic,
             "sep_bound": row.sep_bound}
            for row in rows
        ]
    with open(REFERENCE_PATH, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
