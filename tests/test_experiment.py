import json
import re
from dataclasses import replace

import pytest

from cogsep.cli import main
from cogsep.experiment import (
    ConfigError,
    parse_config,
    run_experiment,
    validate,
)
from cogsep.presets import PRESET_NAMES, figure_preset

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
        ("m_quadrature", 0, "axis sizes"),
        ("mean_gain_to_primary", -1.0, "mean_gain_to_primary must be positive"),
        ("p_pk_db", 4000.0, "out of range"),
    ])
    def test_model_errors_reported(self, field, value, fragment):
        config = replace(parse_config(make_text()), **{field: value})
        assert any(fragment in d for d in validate(config))

    def test_osa_with_busy_power(self):
        config = parse_config(make_text(scheme="osa", extra_scenario="p1_db = 0\n"))
        diags = validate(config)
        assert any("P1 = 0" in d for d in diags)

    def test_conflicting_constraints(self):
        config = parse_config(make_text(constraint="q_avg_db = -10\nq_pk_db = 0"))
        assert any("mutually exclusive" in d for d in validate(config))

    def test_unknown_engine(self):
        config = parse_config(make_text(engines="analytic,magic"))
        assert any("magic" in d for d in validate(config))

    def test_empty_sweep(self):
        config = parse_config(make_text(start=0, stop=-1, step=1))
        assert any("sweep range is empty" in d for d in validate(config))

    def test_explicit_powers_checked_against_constraints(self):
        config = parse_config(make_text(
            extra_scenario="p0_db = 10\np1_db = 0\n"))
        diags = validate(config)
        assert any("peak power" in d for d in diags)


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

    def test_rerun_is_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"]
        base = parse_config(make_text(trials=30000))
        for path, workers in zip(paths, (1, 1, 3)):
            run_experiment(replace(base, output_path=str(path)), workers=workers)
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

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


class TestCli:
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

    def test_runtime_failure_exit_code(self, tmp_path):
        path = tmp_path / "skip.ini"
        text = make_text(scheme="osa", axis="p_pk_db", start=4, stop=4, step=1,
                         trials=500, engines="monte_carlo")
        text = text.replace("p_false_alarm = 0.05", "p_false_alarm = 1.0")
        text = text.replace("prior_busy = 0.4", "prior_busy = 0.0")
        path.write_text(text)
        assert main(["run", str(path), "--out", str(tmp_path / "o.csv")]) == 3
