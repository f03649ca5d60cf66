import json
import os
import re
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from cogsep import analytic, experiment, simulation
from cogsep.cli import main
from cogsep.experiment import (
    ConfigError,
    SweepSpec,
    parse_config,
    run_experiment,
    validate,
)
from cogsep.presets import PRESET_NAMES, figure_preset
from cogsep.sensing import ConditioningError
from cogsep.simulation import InsufficientDataError

CONFIG_TEMPLATE = """\
# demo sweep
[scenario]
scheme = {scheme}
modulation = {modulation}
p_detect = 0.9
p_false_alarm = 0.05
prior_busy = 0.4
noise_variance = 0.01
{extra_scenario}
[mixture]
weights = {weights}
variances = {variances}

[constraints]
p_pk_db = 4
{constraint}

[sweep]
axis = {axis}
start = {start}
stop = {stop}
step = {step}

[monte_carlo]
trials = {trials}
seed = 77
chunk_size = 8192

[output]
engines = {engines}
"""


def make_text(scheme="sss", modulation="2x2", weights="0.25,0.25,0.25,0.25",
              variances="0.2,0.4,0.6,0.8", constraint="q_avg_db = -10",
              axis="q_avg_db", start=-12, stop=-8, step=2, trials=20000,
              engines="analytic,monte_carlo", extra_scenario=""):
    return CONFIG_TEMPLATE.format(**locals())


class TestParsing:
    def test_round_trip(self):
        config = parse_config(make_text())
        assert config.scheme.value == "sss"
        assert (config.m_inphase, config.m_quadrature) == (2, 2)
        assert config.q_avg_db == -10
        assert config.q_pk_db is None
        assert config.sweep.values() == [-12, -10, -8]
        assert config.engines == ("analytic", "monte_carlo")
        assert config.trials == 20000 and config.seed == 77

    def test_syntax_error_has_line_info(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config("[scenario]\nscheme sss\n")

    def test_missing_section(self):
        with pytest.raises(ConfigError, match=r"\[mixture\]"):
            parse_config("[scenario]\nscheme = sss\n")

    def test_bad_modulation(self):
        with pytest.raises(ConfigError, match="modulation"):
            parse_config(make_text(modulation="four"))

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="p_detect"):
            parse_config(make_text().replace("p_detect = 0.9", "p_detect = x"))

    def test_unknown_keys_named(self):
        text = make_text().replace("trials =", "trails =") + "[extra]\nmode = fast\n"
        with pytest.raises(ConfigError) as failure:
            parse_config(text.replace("engines =", "engine ="))
        assert failure.value.args == ("unknown key monte_carlo.trails",
                                      "unknown key output.engine",
                                      "unknown key extra.mode")

    @pytest.mark.parametrize("key,value", [
        ("trials", "2.5"), ("seed", "7.9"), ("chunk_size", "0.5"), ("trials", "inf"),
        ("seed", "1e20"), ("trials", "9007199254740993.0"),
        ("chunk_size", "-9.1e15"),
    ])
    def test_non_integral_counts_named(self, key, value):
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", make_text(), flags=re.M)
        with pytest.raises(ConfigError, match=rf"monte_carlo\.{key} must be a whole number"):
            parse_config(text)

    def test_whole_numbers_read_exactly(self):
        """An integer literal keeps every digit, as ``--seed`` does; a decimal
        or exponent form below 2**53 is read as its whole number."""
        text = re.sub(r"^seed = .*$", "seed = 12345678901234567891", make_text(), flags=re.M)
        text = re.sub(r"^trials = .*$", "trials = 9007199254740993", text, flags=re.M)
        config = parse_config(text)
        assert (config.seed, config.trials) == (12345678901234567891, 9007199254740993)
        text = re.sub(r"^trials = .*$", "trials = 2e4", make_text(), flags=re.M)
        assert parse_config(text).trials == 20000

    def test_stray_percent_is_config_error(self):
        with pytest.raises(ConfigError, match=r"^scenario\.p_detect has an invalid value: "
                                              "'%' must be followed"):
            parse_config(make_text().replace("p_detect = 0.9", "p_detect = 0.9%"))

    @pytest.mark.parametrize("old,new,message", [
        ("p_detect = 0.9\n", "", "missing required key scenario.p_detect"),
        ("p_detect = 0.9", "p_detect = x", "scenario.p_detect is not a number: 'x'"),
        ("weights = 0.25,0.25,", "weights = 0.25,x,",
         "mixture.weights is not a list of numbers: '0.25,x,0.25,0.25'"),
        ("scheme = sss", "scheme = fdd", "scenario.scheme must be sss or osa, got 'fdd'"),
    ], ids=["missing", "not-a-number", "not-a-list", "bad-scheme"])
    def test_parse_errors_name_section_and_key(self, old, new, message):
        with pytest.raises(ConfigError) as failure:
            parse_config(make_text().replace(old, new))
        assert str(failure.value) == message

    def test_programming_error_propagates(self, monkeypatch):
        def broken(text):
            raise TypeError("a bug, not a config error")

        monkeypatch.setattr(experiment, "_float_list", broken)
        with pytest.raises(TypeError, match="a bug"):
            parse_config(make_text())

    def test_integral_float_counts_accepted(self):
        config = parse_config(make_text(trials="1e6").replace("seed = 77", "seed = 7.0"))
        assert (config.trials, config.seed) == (1_000_000, 7)
        assert type(config.trials) is int and type(config.seed) is int


class TestValidate:
    def test_valid_config_is_clean(self):
        assert validate(parse_config(make_text())) == []

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_are_clean(self, name):
        assert validate(figure_preset(name)) == []

    def test_bad_mixture_weights(self):
        diags = validate(parse_config(make_text(weights="0.5,0.2,0.1,0.1")))
        assert any("sum to 1" in d for d in diags)

    def test_mixture_length_mismatch(self):
        diags = validate(parse_config(make_text(weights="0.5,0.5")))
        assert any("equal length" in d for d in diags)

    @pytest.mark.parametrize("field,value,fragment", [
        ("p_detect", 1.5, "p_detect must lie in [0, 1]"),
        ("noise_variance", 0.0, "noise_variance must be positive"),
        ("noise_variance", float("nan"), "noise_variance must be positive and finite"),
        ("noise_variance", float("inf"), "noise_variance must be positive and finite"),
        ("noise_variance", True, "noise_variance must be positive and finite, got True"),
        ("noise_variance", "0.01", "noise_variance must be positive and finite, got '0.01'"),
        ("m_quadrature", 0, "m_quadrature must be >= 1, got 0"),
        ("m_inphase", True, "m_inphase must be an integer, got True"),
        ("mixture_variances", (0.2, "0.4", 0.6, 0.8),
         "mixture variance must be positive and finite, got '0.4'"),
        ("p_pk_db", 4000.0, "out of range"),
    ])
    def test_model_errors_reported(self, field, value, fragment):
        config = replace(parse_config(make_text()), **{field: value})
        assert any(fragment in d for d in validate(config))

    @pytest.mark.parametrize("preset,updates,expected", [
        ("fig1", {"p_pk_db": 4000.0}, "constraints.p_pk_db = 4000 dB"),
        ("fig1", {"q_avg_db": 4000.0}, "constraints.q_avg_db = 4000 dB"),
        ("fig5", {"q_pk_db": 4000.0}, "constraints.q_pk_db = 4000 dB"),
        ("fig1", {"p0_db": 4000.0, "p1_db": 0.0}, "scenario.p0_db = 4000 dB"),
        ("fig1", {"p0_db": 0.0, "p1_db": 4000.0}, "scenario.p1_db = 4000 dB"),
        ("fig1", {"p_pk_db": float("inf")}, "constraints.p_pk_db = inf dB"),
        ("fig1", {"sweep": SweepSpec("q_avg_db", 3080.0, 3090.0, 1.0)},
         "sweep value q_avg_db = 3083 dB"),
        ("fig5", {"sweep": SweepSpec("p_pk_db", 0.0, 4000.0, 1000.0)},
         "sweep value p_pk_db = 4000 dB"),
    ], ids=["p_pk_db", "q_avg_db", "q_pk_db", "p0_db", "p1_db", "p_pk_db-inf",
            "sweep-q_avg_db", "sweep-p_pk_db"])
    def test_db_out_of_range_names_key_and_value(self, preset, updates, expected):
        config = replace(figure_preset(preset), **updates)
        assert validate(config) == [f"{expected} is out of range"]

    @pytest.mark.parametrize("edits,expected", [
        ({"constraint": ""}, ["one of constraints.q_avg_db / q_pk_db is required"]),
        ({"constraint": "q_avg_db = -10\nq_pk_db = 0"},
         ["q_avg_db and q_pk_db are mutually exclusive",
          "sweeping q_avg_db requires the average-interference mode"]),
        ({"scheme": "osa", "extra_scenario": "p1_db = 0\n"},
         ["OSA forbids transmission when sensed busy: P1 = 0, remove p1_db"]),
        ({"extra_scenario": "p0_db = 0\n"}, ["explicit powers for SSS need both p0_db and p1_db"]),
        ({"constraint": "q_pk_db = 0", "extra_scenario": "p0_db = 0\np1_db = 0\n",
          "axis": "p_detect", "start": 0.5, "stop": 0.9, "step": 0.2},
         ["explicit powers cannot be combined with the peak policy"]),
        ({"axis": "q_pk_db"}, ["sweep.axis must be one of ('q_avg_db', 'p_pk_db', 'p_detect', "
                               "'p_false_alarm'), got 'q_pk_db'"]),
        ({"start": 0, "stop": -1, "step": 1},
         ["sweep range is empty (need start <= stop and step > 0)"]),
        ({"engines": ""}, ["at least one engine is required"]),
        ({"engines": "analytic,magic"},
         ["unknown engine 'magic' (choose from ('analytic', 'bound', 'monte_carlo'))"]),
    ], ids=["no-limit", "both-limits", "osa-busy-power", "sss-one-power", "explicit-peak",
            "bad-axis", "empty-sweep", "no-engine", "unknown-engine"])
    def test_config_diagnostics(self, edits, expected):
        assert validate(parse_config(make_text(**edits))) == expected

    def test_readme_config_is_clean(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        assert validate(parse_config(block)) == []

    def test_negative_seed_reported(self):
        config = replace(parse_config(make_text()), seed=-1)
        assert "monte_carlo: master_seed must be >= 0, got -1" in validate(config)

    @pytest.mark.parametrize("field,value,message", [
        ("trials", 2.5, "trials must be an integer, got 2.5"),
        ("trials", True, "trials must be an integer, got True"),
        ("chunk_size", 1000.5, "chunk_size must be an integer, got 1000.5"),
        ("seed", True, "master_seed must be an integer, got True"),
        ("trials", 0, "trials must be >= 1, got 0"),
        ("chunk_size", 0, "chunk_size must be >= 1, got 0"),
    ], ids=["trials-2.5", "trials-True", "chunk_size-1000.5", "seed-True", "trials-0",
            "chunk_size-0"])
    def test_monte_carlo_rules_are_the_runs(self, field, value, message):
        # validate applies the rules of the run's MonteCarloConfig, so the run
        # rejects such a config as a config error, before any closed form runs
        config = replace(parse_config(make_text()), **{field: value})
        assert validate(config) == [f"monte_carlo: {message}"]
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_experiment(config)

    def test_chunk_count_capped(self):
        # 10**8 one-use chunks would run for hours: the run's MonteCarloConfig
        # refuses them, and so does validate, by the same rule
        message = ("trials / chunk_size needs 100000000 chunks, more than the limit "
                   "of 1048576; raise chunk_size")
        with pytest.raises(ValueError, match=re.escape(message)):
            simulation.MonteCarloConfig(trials=10**8, master_seed=0, chunk_size=1)
        config = replace(parse_config(make_text()), trials=10**8, chunk_size=1)
        assert validate(config) == [f"monte_carlo: {message}"]
        assert simulation.MAX_CHUNKS == 2**20
        assert validate(replace(config, trials=2**20)) == []

    def test_explicit_powers_checked_against_constraints(self):
        config = parse_config(make_text(
            extra_scenario="p0_db = 10\np1_db = 0\n"))
        diags = validate(config)
        assert any("peak power" in d for d in diags)

    @pytest.mark.parametrize("preset,updates,expected", [
        # the last point, 1.5, lies above 1
        ("fig3", {"sweep": SweepSpec("p_detect", 0.5, 1.5, 0.5)},
         "p_detect must lie in [0, 1], got 1.5"),
        # p0 = 2.0 is above the 0.32 peak power of the point p_pk_db = -5
        ("fig5", {"q_pk_db": None, "q_avg_db": 10.0, "p0_db": 3.0, "p1_db": 0.0},
         "explicit powers exceed the peak power constraint"),
        # an average interference of 1.10 against the 0.01 limit of q_avg_db = -20
        ("fig1", {"q_avg_db": 10.0, "p0_db": 3.0, "p1_db": 0.0},
         "explicit powers violate the average interference constraint"),
    ], ids=["p_detect-above-1", "explicit-above-swept-peak", "explicit-above-swept-avg"])
    def test_every_sweep_point_checked(self, preset, updates, expected):
        config = replace(figure_preset(preset), **updates)
        assert validate(config) == [expected]

    def test_sweep_ends_at_its_stop(self):
        """0.09 + 13 * 0.07 rounds to 1.0000000000000002; the sweep stops at 1.0."""
        sweep = SweepSpec("p_detect", 0.09, 1.0, 0.07)
        assert len(sweep.values()) == 14 and sweep.values()[-1] == 1.0
        assert validate(replace(figure_preset("fig3"), sweep=sweep)) == []

    @pytest.mark.parametrize("start,stop", [
        (float("inf"), float("inf")), (float("-inf"), 0.0), (0.0, float("nan"))])
    def test_unbounded_sweep_is_empty(self, start, stop):
        config = replace(figure_preset("fig1"), sweep=SweepSpec("q_avg_db", start, stop, 1.0))
        assert validate(config) == [
            "sweep range is empty (need start <= stop and step > 0)"]

    def test_sweep_point_cap(self):
        """2.6e301 points are counted, reported and never built."""
        sweep = SweepSpec("q_avg_db", -20.0, 6.0, 1e-300)
        message = (f"sweep has 2.6e+301 points, more than the limit of "
                   f"{experiment.MAX_SWEEP_POINTS}")
        assert validate(replace(figure_preset("fig1"), sweep=sweep)) == [message]
        with pytest.raises(ConfigError, match=re.escape(message)):
            sweep.values()


INF, NAN = float("inf"), float("nan")
EMPTY_RECORD = dict.fromkeys(experiment.CSV_COLUMNS, None)
# (row, the record json.dump must write for it) per row of each case: an int
# trials, an infeasible row with every engine column empty, non-finite cells,
# which JSON spells Infinity and NaN, and negative zeros
JSON_CASES = {
    2: [(experiment.ResultRow(1.5, 0.25, 0.0, 0.125, None, 0.0625, 0.001, 0.5, 4000),
         {"sweep_value": 1.5, "p0": 0.25, "p1": 0.0, "sep_analytic": 0.125,
          "sep_bound": None, "sep_mc": 0.0625, "sep_mc_ci95": 0.001,
          "skip_fraction": 0.5, "trials": 4000}),
        (experiment.ResultRow(2.0), EMPTY_RECORD | {"sweep_value": 2.0})],
    0: [],
    "nonfinite": [(experiment.ResultRow(3.0, INF, 0.0, NAN, -INF, None, INF, NAN, 7),
                   {"sweep_value": 3.0, "p0": INF, "p1": 0.0, "sep_analytic": NAN,
                    "sep_bound": -INF, "sep_mc": None, "sep_mc_ci95": INF,
                    "skip_fraction": NAN, "trials": 7})],
    "negative_zero": [(experiment.ResultRow(-0.0, 1e-300, -0.0, 0.1),
                       EMPTY_RECORD | {"sweep_value": -0.0, "p0": 1e-300, "p1": -0.0,
                                       "sep_analytic": 0.1})],
}


class TestRunExperiment:
    def test_sweep_rows_and_formats(self, tmp_path):
        out = tmp_path / "rows.csv"
        config = replace(parse_config(make_text(trials=5000)),
                         output_path=str(out))
        rows = run_experiment(config)
        assert len(rows) == 3
        text = out.read_bytes().decode("utf-8")
        assert "\r" not in text
        lines = text.strip().split("\n")
        assert lines[0] == ("sweep_value,p0,p1,sep_analytic,sep_bound,"
                            "sep_mc,sep_mc_ci95,skip_fraction,trials")
        # bound engine not requested: its column stays empty
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[4] == ""
            assert cells[8] == "5000"
            # at most 9 significant digits on decimal columns
            for cell in (cells[0], cells[3], cells[5]):
                digits = re.sub(r"[-+.e]", "", cell)
                assert len(digits.lstrip("0")) <= 9

    def test_json_mirror_has_identical_numbers(self, tmp_path):
        config = replace(parse_config(make_text(trials=4000)),
                         output_path=str(tmp_path / "rows.csv"),
                         json_path=str(tmp_path / "rows.json"))
        rows = run_experiment(config)
        mirrored = json.loads((tmp_path / "rows.json").read_text())
        csv_lines = (tmp_path / "rows.csv").read_text().strip().split("\n")[1:]
        assert len(mirrored) == len(rows) == len(csv_lines)
        for record, line in zip(mirrored, csv_lines):
            cells = line.split(",")
            assert record["sep_analytic"] == float(cells[3])
            assert record["sep_mc"] == float(cells[5])
            assert record["sep_bound"] is None

    @pytest.mark.parametrize("case", list(JSON_CASES))
    def test_json_bytes_equal_json_dump(self, tmp_path, case):
        rows, payload = zip(*JSON_CASES[case]) if JSON_CASES[case] else ((), ())
        experiment.write_json(list(rows), str(tmp_path / "rows.json"))
        with open(tmp_path / "dumped.json", "w", encoding="utf-8", newline="\n") as fh:
            json.dump(list(payload), fh, indent=2)
            fh.write("\n")
        assert (tmp_path / "rows.json").read_bytes() == (tmp_path / "dumped.json").read_bytes()

    def test_rerun_is_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"]
        base = parse_config(make_text(trials=30000))
        for path, workers in zip(paths, (1, 1, 3)):
            run_experiment(replace(base, output_path=str(path)), workers=workers)
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_sweep_points_do_not_share_streams(self):
        # OSA at an explicit power: every point simulates the same scenario, so
        # under "seed + point" keying point i + 1 at seed 7 repeated point i at seed 8
        text = make_text(scheme="osa", axis="p_pk_db", start=1, stop=4, step=1,
                         trials=20_000, engines="monte_carlo",
                         extra_scenario="p0_db = 0\n")
        rows = {seed: run_experiment(replace(parse_config(text), seed=seed))
                for seed in (7, 8)}
        later = [row.sep_mc for row in rows[7][1:]]
        earlier = [row.sep_mc for row in rows[8][:-1]]
        assert all(a != b for a, b in zip(later, earlier))

    def test_invalid_config_raises(self):
        config = parse_config(make_text(weights="0.5,0.4"))
        with pytest.raises(ConfigError):
            run_experiment(config)

    def test_infeasible_points_reported(self, tmp_path, capsys):
        # idle channel with certain false alarms: OSA never transmits
        text = make_text(scheme="osa", axis="p_pk_db", start=4, stop=4, step=1,
                         trials=500, engines="monte_carlo")
        text = text.replace("p_false_alarm = 0.05", "p_false_alarm = 1.0")
        text = text.replace("prior_busy = 0.4", "prior_busy = 0.0")
        config = replace(parse_config(text), output_path=str(tmp_path / "x.csv"))
        with pytest.raises(RuntimeError, match="sweep point"):
            run_experiment(config)
        # the row is still emitted, with empty engine columns
        lines = (tmp_path / "x.csv").read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[1].split(",")[5] == ""

    @pytest.mark.parametrize("preset", ["fig2", "fig6"])  # fixed power, peak policy
    def test_closed_form_infeasible_point_is_an_empty_row(self, tmp_path, capsys, preset):
        # at P_d = P_f = 1 OSA never senses idle; the other points still evaluate
        config = replace(figure_preset(preset), p_detect=1.0, engines=("analytic", "bound"),
                         sweep=SweepSpec("p_false_alarm", 0.5, 1.0, 0.25),
                         output_path=str(tmp_path / "rows.csv"))
        message = "decision IDLE has probability 0; posterior undefined"
        with pytest.raises(RuntimeError, match=f"^1 sweep point\\(s\\) failed: sweep point 1: "
                                               f"{re.escape(message)}$"):
            run_experiment(config)
        assert capsys.readouterr().err == f"cogsep: infeasible sweep point 1: {message}\n"
        rows = [line.split(",") for line in (tmp_path / "rows.csv").read_text().split("\n")[1:-1]]
        assert [row[0] for row in rows] == ["0.5", "0.75", "1"]
        assert all(row[3] and row[4] for row in rows[:2]) and rows[2][1:] == [""] * 8

    def test_programming_error_aborts_the_run(self, tmp_path, monkeypatch):
        def broken(scenario):
            raise ZeroDivisionError("division by zero in a closed form")

        monkeypatch.setattr(experiment, "sep_rayleigh", broken)
        config = replace(parse_config(make_text(engines="analytic")),
                         output_path=str(tmp_path / "rows.csv"))
        with pytest.raises(ZeroDivisionError, match="in a closed form"):
            run_experiment(config)
        assert not (tmp_path / "rows.csv").exists()


def _analytic_fig1():
    return replace(figure_preset("fig1"), engines=("analytic", "bound"),
                   output_path=None, json_path=None)


class TestSweepPointsBuiltOnce:
    """The run uses the Scenarios validation built; no point is built twice."""

    def _count_builds(self, monkeypatch):
        calls = []
        build = experiment._scenario

        def counted(config, swept, *mixture):
            calls.append(swept)
            return build(config, swept, *mixture)

        monkeypatch.setattr(experiment, "_scenario", counted)
        return calls

    def test_run_builds_each_point_once(self, monkeypatch):
        calls = self._count_builds(monkeypatch)
        rows = run_experiment(_analytic_fig1())
        # the config as written, then the 27 sweep points
        assert len(rows) == 27
        assert calls == [None] + ["q_avg_db"] * 27

    def test_validate_builds_the_same_points(self, monkeypatch):
        calls = self._count_builds(monkeypatch)
        assert validate(_analytic_fig1()) == []
        assert calls == [None] + ["q_avg_db"] * 27

    def test_branch_tables_built_once_per_sensing_model(self, monkeypatch):
        # a sweep's optimizer and closed forms share one table per distinct
        # sensing model: one for the q_avg_db and p_pk_db sweeps, one per point
        # for the p_detect and p_false_alarm sweeps
        builds = []
        branches = analytic._branches

        def counted(scenario, collapse=False):
            builds.append(collapse)
            return branches(scenario, collapse)

        monkeypatch.setattr(analytic, "_branches", counted)
        counts, points = {}, {}
        for preset in PRESET_NAMES:
            builds.clear()
            rows = run_experiment(replace(figure_preset(preset), engines=("analytic", "bound"),
                                          output_path=None, json_path=None))
            counts[preset], points[preset] = len(builds), len(rows)
            assert len(set(builds)) == 1  # one collapse mode per sweep
        assert counts == {"fig1": 1, "fig2": 1, "fig3": points["fig3"], "fig4": points["fig4"],
                          "fig5": 1, "fig6": 1, "fig7": points["fig7"], "fig8": points["fig8"]}

    def test_rows_formatted_once_for_both_writers(self, monkeypatch, tmp_path):
        formatted = []
        row_strings = experiment._row_strings

        def counted(row):
            formatted.append(row)
            return row_strings(row)

        monkeypatch.setattr(experiment, "_row_strings", counted)
        rows = run_experiment(replace(_analytic_fig1(), output_path=str(tmp_path / "rows.csv"),
                                      json_path=str(tmp_path / "rows.json")))
        assert formatted == rows  # each row once, though both files were written
        monkeypatch.setattr(experiment, "_row_strings", row_strings)
        experiment.write_csv(rows, str(tmp_path / "alone.csv"))
        experiment.write_json(rows, str(tmp_path / "alone.json"))
        for suffix in ("csv", "json"):
            assert ((tmp_path / f"rows.{suffix}").read_bytes()
                    == (tmp_path / f"alone.{suffix}").read_bytes())

    def test_traced_layers_see_every_point(self, monkeypatch):
        # perfbench/tracer.py wraps these names on the experiment module; a
        # layer the run stops calling there would vanish from its metrics
        calls = {name: [] for name in ("optimize_powers_sss", "sep_rayleigh", "sep_upper_bound",
                                       "sep_peak_interference_exact", "sep_peak_interference")}

        def wrap(name):
            function = getattr(experiment, name)

            def counted(arg):
                calls[name].append(arg)
                return function(arg)

            monkeypatch.setattr(experiment, name, counted)

        for name in calls:
            wrap(name)
        for preset in ("fig1", "fig5"):  # 27 points, average limit; 21, peak policy
            run_experiment(replace(figure_preset(preset), engines=("analytic", "bound"),
                                   output_path=None, json_path=None))
        # the optimizer and each closed form see the whole sweep in one call
        assert {name: [len(batch) for batch in batches] for name, batches in calls.items()} == {
            "optimize_powers_sss": [27], "sep_rayleigh": [27], "sep_upper_bound": [27],
            "sep_peak_interference_exact": [21], "sep_peak_interference": [21]}


class TestSharedModelObjects:
    """A sweep point builds only the model objects its swept value changes;
    it shares the others with the points built before it."""

    @pytest.mark.parametrize("preset,kept,changed", [
        ("fig3", "constraints", "sensing"),  # p_detect
        ("fig1", "sensing", "constraints"),  # q_avg_db
    ])
    def test_points_share_the_objects_their_value_leaves(self, preset, kept, changed):
        scenarios, diags = experiment._build(figure_preset(preset))
        assert diags == [] and len(scenarios) > 1
        assert len({id(getattr(scenario, kept)) for scenario in scenarios}) == 1
        assert len({id(getattr(scenario, changed)) for scenario in scenarios}) == len(scenarios)
        # the mixture, and the peak-power specs the optimizer replaces
        for name in ("interference", "spec_idle", "spec_busy"):
            assert len({id(getattr(scenario, name)) for scenario in scenarios}) == 1


def _sweep_outputs(config, tmp_path, workers):
    """(CSV bytes, JSON bytes) of one run with ``workers``."""
    csv, js = tmp_path / f"w{workers}.csv", tmp_path / f"w{workers}.json"
    run_experiment(replace(config, output_path=str(csv), json_path=str(js)),
                   workers=workers)
    return csv.read_bytes(), js.read_bytes()


class TestPooledSweep:
    """workers > 1: one pool for the sweep, the same bytes as one process."""

    @pytest.mark.parametrize("name,factor", [("fig2", 9), ("fig5", 5)])
    def test_workers_do_not_change_bytes(self, tmp_path, name, factor):
        # fig2: OSA with skipped trials; fig5: peak policy, one gain draw per trial
        preset = figure_preset(name)
        config = replace(preset, sweep=replace(preset.sweep, step=preset.sweep.step * factor),
                         engines=("analytic", "bound", "monte_carlo"),
                         trials=30_000, chunk_size=8_192, seed=7)
        assert _sweep_outputs(config, tmp_path, 2) == _sweep_outputs(config, tmp_path, 1)

    @pytest.mark.parametrize("engines", ["monte_carlo", "analytic,monte_carlo"])
    def test_infeasible_point_same_as_one_worker(self, tmp_path, capsys, engines):
        # OSA on an idle channel, certain false alarm at p_false_alarm = 1: every
        # trial is skipped (Monte Carlo fails when its counts are reduced), and
        # the idle-decision posterior is undefined (the closed form fails first)
        text = make_text(scheme="osa", axis="p_false_alarm", start=0.5, stop=1.0,
                         step=0.25, trials=20_000, engines=engines)
        config = parse_config(text.replace("prior_busy = 0.4", "prior_busy = 0.0"))
        outcomes = []
        for workers in (1, 2):
            with pytest.raises(RuntimeError) as failure:
                _sweep_outputs(config, tmp_path, workers)
            outcomes.append(((tmp_path / f"w{workers}.csv").read_bytes(),
                             capsys.readouterr().err, str(failure.value)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1].count("infeasible sweep point 1:") == 1

    @pytest.mark.parametrize("engines,workers,sizes", [
        ("analytic,monte_carlo", 2, [2]),
        ("analytic,monte_carlo", 1000, [9]),  # 3 points x 3 chunks
        ("analytic", 2, []),
        ("analytic,monte_carlo", 1, []),
    ])
    def test_one_pool_per_sweep(self, pool_log, engines, workers, sizes):
        config = parse_config(make_text(trials=20_000, engines=engines))
        rows = run_experiment(config, workers=workers)
        assert pool_log.sizes == sizes
        assert rows == run_experiment(config)

    @pytest.mark.parametrize("workers,runs", [
        (2, [[0, 1, 2]]),  # one task per point
        (3, [[0, 1, 2]]),
        (6, [[0, 1], [2]]),  # ceil(6 / 3) = 2 tasks per point
        (1000, [[0], [1], [2]]),
    ])
    def test_tasks_per_point(self, pool_log, workers, runs):
        config = parse_config(make_text(trials=20_000))  # 3 points x 3 chunks
        rows = run_experiment(config, workers=workers)
        assert pool_log.tasks == [[(point, i) for i in run]
                                  for point in range(3) for run in runs]
        assert rows == run_experiment(config)

    def test_no_thread_left_running(self):
        threads = set(threading.enumerate())
        run_experiment(parse_config(make_text(trials=20_000)), workers=2)
        assert set(threading.enumerate()) == threads

    def test_aborted_run_leaves_no_thread_running(self, monkeypatch):
        chunk_counts = simulation._chunk_counts

        def broken(scenario, config, index):
            # point 0's task raises while the other points' tasks are still
            # queued
            if config.point == 0:
                raise ZeroDivisionError("division by zero in a Monte Carlo task")
            return chunk_counts(scenario, config, index)

        monkeypatch.setattr(simulation, "_chunk_counts", broken)
        threads = set(threading.enumerate())
        with pytest.raises(ZeroDivisionError, match="Monte Carlo task"):
            run_experiment(parse_config(make_text(trials=20_000)), workers=2)
        assert set(threading.enumerate()) == threads

    def test_error_at_monte_carlo_start_aborts_the_run(self, monkeypatch, tmp_path, capsys):
        # only reducing an estimate's counts finds every trial skipped: an
        # InsufficientDataError while its chunks run is a bug, not an
        # infeasible point
        def broken(scenario, config, index):
            raise InsufficientDataError("raised in a chunk")

        monkeypatch.setattr(simulation, "_chunk_counts", broken)
        out = tmp_path / "rows.csv"
        config = replace(parse_config(make_text(trials=5000)), output_path=str(out))
        with pytest.raises(InsufficientDataError, match="raised in a chunk"):
            run_experiment(config)
        assert not out.exists()
        path = tmp_path / "run.ini"
        path.write_text(make_text(trials=5000))
        assert main(["run", str(path), "--out", str(out)]) == 3
        assert "raised in a chunk" in capsys.readouterr().err

    def test_conditioning_error_at_monte_carlo_finish_aborts_the_run(self, monkeypatch,
                                                                     tmp_path, capsys):
        # only InsufficientDataError makes a reduced estimate infeasible; a
        # ConditioningError there is a bug, not an empty row
        def broken(counts, trials):
            raise ConditioningError("raised at the reduction")

        monkeypatch.setattr(simulation, "_estimate", broken)
        out = tmp_path / "rows.csv"
        config = replace(parse_config(make_text(trials=5000)), output_path=str(out))
        with pytest.raises(ConditioningError, match="raised at the reduction"):
            run_experiment(config)
        assert not out.exists()
        path = tmp_path / "run.ini"
        path.write_text(make_text(trials=5000))
        assert main(["run", str(path), "--out", str(out)]) == 3
        assert "raised at the reduction" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers,message", [
        (0, "must be >= 1, got 0"),
        (-3, "must be >= 1, got -3"),
        (2.5, "must be an integer, got 2.5"),
        (True, "must be an integer, got True"),
        ("2", "must be an integer, got '2'"),
    ], ids=["0", "-3", "2.5", "True", "'2'"])
    def test_workers_below_one_rejected(self, workers, message):
        # the rule holds whether or not a Monte Carlo engine would use them
        for engines in ("analytic", "analytic,monte_carlo"):
            config = parse_config(make_text(engines=engines))
            with pytest.raises(ConfigError, match=re.escape(f"workers {message}")):
                run_experiment(config, workers=workers)


class TestCli:
    def test_runs_as_a_module(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-m", "cogsep", "--help"], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0
        assert out.stdout.startswith("usage: cogsep ")
        assert "{run,validate,preset}" in out.stdout
        # importing the package does not run (or load) the module entry point
        out = subprocess.run([sys.executable, "-c", "import sys, cogsep; "
                              "print('cogsep.__main__' in sys.modules)"], env=env,
                             check=True, capture_output=True, text=True, timeout=60)
        assert out.stdout.strip() == "False"

    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "good.ini"
        path.write_text(make_text())
        assert main(["validate", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_reports_violations(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(make_text(weights="0.9,0.1,0.1,0.1"))
        assert main(["validate", str(path)]) == 2
        assert "sum to 1" in capsys.readouterr().out

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "typo.ini"
        path.write_text(make_text().replace("engines =", "engine ="))
        assert main(["validate", str(path)]) == 2
        assert "unknown key output.engine" in capsys.readouterr().err
        assert main(["run", str(path), "--out", str(tmp_path / "o.csv")]) == 2
        assert not (tmp_path / "o.csv").exists()

    def test_missing_file_is_config_error(self):
        assert main(["validate", "/nonexistent/cfg.ini"]) == 2

    def test_run_writes_csv(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(make_text(trials=2000, engines="analytic"))
        out = tmp_path / "out.csv"
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert out.exists()

    def test_run_without_output_path_fails(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(make_text())
        assert main(["run", str(path)]) == 2

    def test_preset_with_overrides(self, tmp_path):
        out = tmp_path / "fig3.csv"
        code = main(["preset", "fig3", "--trials", "2000", "--seed", "9",
                     "--engines", "analytic", "--out", str(out)])
        assert code == 0
        assert out.read_text().count("\n") == 22  # header + 21 sweep points

    def test_engine_shorthands(self, tmp_path):
        # README's a,b,mc: case, spaces and an empty last name do not matter
        assert experiment.normalize_engines(" A, b ,mc,") == (
            "analytic", "bound", "monte_carlo")
        written = []
        for engines in ("a,b", "analytic,bound"):
            out, js = tmp_path / f"{engines}.csv", tmp_path / f"{engines}.json"
            assert main(["preset", "fig1", "--engines", engines,
                         "--out", str(out), "--json", str(js)]) == 0
            written.append((out.read_bytes(), js.read_bytes()))
        assert written[0] == written[1]

    def test_workers_below_one_is_config_error(self, tmp_path, capsys):
        code = main(["preset", "fig3", "--engines", "analytic", "--workers", "0",
                     "--out", str(tmp_path / "fig3.csv")])
        assert code == 2
        assert "workers must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "fig3.csv").exists()

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        code = main(["preset", "fig2", "--seed", "-1", "--engines", "monte_carlo",
                     "--out", str(tmp_path / "fig2.csv")])
        assert code == 2
        assert "monte_carlo: master_seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "fig2.csv").exists()

    def test_validate_checks_every_sweep_point(self, tmp_path, capsys):
        path = tmp_path / "pd.ini"
        path.write_text(make_text(axis="p_detect", start=0.5, stop=1.5, step=0.5))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().out == "error: p_detect must lie in [0, 1], got 1.5\n"

    def test_runtime_failure_exit_code(self, tmp_path):
        path = tmp_path / "skip.ini"
        text = make_text(scheme="osa", axis="p_pk_db", start=4, stop=4, step=1,
                         trials=500, engines="monte_carlo")
        text = text.replace("p_false_alarm = 0.05", "p_false_alarm = 1.0")
        text = text.replace("prior_busy = 0.4", "prior_busy = 0.0")
        path.write_text(text)
        assert main(["run", str(path), "--out", str(tmp_path / "o.csv")]) == 3

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        out = tmp_path / "missing" / "fig2.csv"
        assert main(["preset", "fig2", "--engines", "analytic", "--out", str(out)]) == 3
        assert "No such file or directory" in capsys.readouterr().err

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        def broken(scenario):
            raise TypeError("a bug, not a runtime failure")

        monkeypatch.setattr(experiment, "sep_rayleigh", broken)
        with pytest.raises(TypeError, match="a bug"):
            main(["preset", "fig2", "--engines", "analytic",
                  "--out", str(tmp_path / "fig2.csv")])
