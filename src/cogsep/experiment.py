"""Experiment configs, sweep execution, and machine-readable results.

Configs are flat ``key = value`` files with ``[section]`` headers (sections:
scenario, mixture, constraints, sweep, monte_carlo, output). Each sweep point
is the config with the swept key replaced by the point's value, built into a
Scenario by ``_scenario``. ``_build`` builds the config as written and every
sweep point; ``validate`` reports its diagnostics and the run uses the
Scenarios it built, so each point is built once and a config ``validate``
accepts runs at every point. For each point the runner resolves the transmit
powers from the active constraint mode (average-interference optimization /
cap, or the instantaneous peak policy), evaluates the requested engines, and
writes one CSV row; an optional JSON mirror carries the identical numbers.
Only a zero-probability sensing decision or a Monte Carlo estimate with every
trial skipped makes a point infeasible (an empty row); any other error aborts
the run.
"""

import configparser
import json
import math
import sys
from dataclasses import dataclass, fields, replace

from .analytic import (
    ConstraintSet,
    Scenario,
    Scheme,
    max_power_osa,
    optimize_powers_sss,
    sep_peak_interference,
    sep_peak_interference_exact,
    sep_rayleigh,
    sep_upper_bound,
)
from .mathcore import GaussianMixture
from .modulation import ConstellationSpec
from .sensing import ConditioningError, SensingModel
from .simulation import (
    InsufficientDataError,
    MonteCarloConfig,
    monte_carlo_pool,
    run_monte_carlo,  # noqa: F401  (kept at this name for code that wraps it here)
    start_monte_carlo,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "SweepSpec",
    "ResultRow",
    "parse_config",
    "parse_config_file",
    "validate",
    "run_experiment",
    "write_csv",
    "write_json",
]

SWEEP_AXES = ("q_avg_db", "p_pk_db", "p_detect", "p_false_alarm")
ENGINES = ("analytic", "bound", "monte_carlo")
ENGINE_ALIASES = {"a": "analytic", "b": "bound", "mc": "monte_carlo"}


def normalize_engines(raw: str) -> tuple[str, ...]:
    """Split a comma list of engine names, expanding the a/b/mc shorthands."""
    tokens = (tok.strip().lower() for tok in raw.split(","))
    return tuple(ENGINE_ALIASES.get(tok, tok) for tok in tokens if tok)


# each sweep point is built once, in 40-70 us (2-core x86-64 VM): 10 000 take < 1 s
MAX_SWEEP_POINTS = 10_000
DEFAULT_TRIALS = 200_000
DEFAULT_SEED = 12345
DEFAULT_CHUNK = 65_536


class ConfigError(ValueError):
    """Structural or semantic problem in an experiment config.

    Each argument is one diagnostic; the message joins them with "; ".
    """

    def __str__(self) -> str:
        return "; ".join(map(str, self.args))


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    start: float
    stop: float
    step: float

    def count(self) -> int:
        """Number of sweep points, counted without building them."""
        span = (self.stop - self.start) / self.step if self.step > 0 else -1.0
        if not 0.0 <= span < math.inf:  # also an infinite or NaN bound
            return 0
        return int(math.floor(span + 1e-9)) + 1

    def values(self) -> list[float]:
        count = self.count()
        if count > MAX_SWEEP_POINTS:
            raise ConfigError(_too_many_points(count))
        # 0.09 + 13 * 0.07 rounds to 1.0000000000000002, an ulp past stop = 1.0
        return [min(self.start + i * self.step, self.stop) for i in range(count)]


def _too_many_points(count: int) -> str:
    return f"sweep has {count:.3g} points, more than the limit of {MAX_SWEEP_POINTS}"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to run one sweep: scenario, constraints, engines."""

    scheme: Scheme
    m_inphase: int
    m_quadrature: int
    p_detect: float
    p_false_alarm: float
    prior_busy: float
    noise_variance: float
    mixture_weights: tuple[float, ...]
    mixture_variances: tuple[float, ...]
    p_pk_db: float
    q_avg_db: float | None
    q_pk_db: float | None
    mean_gain_to_primary: float
    sweep: SweepSpec
    engines: tuple[str, ...]
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED
    chunk_size: int = DEFAULT_CHUNK
    output_path: str | None = None
    json_path: str | None = None
    p0_db: float | None = None
    p1_db: float | None = None


@dataclass(frozen=True)
class ResultRow:
    """One sweep point; its fields are the output columns, in order.

    Engine columns are None when not requested, and every column but the
    sweep value is None at an infeasible point.
    """

    sweep_value: float
    p0: float | None = None
    p1: float | None = None
    sep_analytic: float | None = None
    sep_bound: float | None = None
    sep_mc: float | None = None
    sep_mc_ci95: float | None = None
    skip_fraction: float | None = None
    trials: int | None = None


CSV_COLUMNS = tuple(field.name for field in fields(ResultRow))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def parse_config(text: str) -> ExperimentConfig:
    """Parse a config document; raises ConfigError with a diagnostic.

    Every key the parser reads is recorded, and any other key is an error
    that names it as ``section.key``.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    for section in ("scenario", "mixture", "constraints", "sweep"):
        if not cp.has_section(section):
            raise ConfigError(f"missing required section [{section}]")
    read: set[str] = set()

    def get(section: str, key: str, default: str | None = None) -> str | None:
        read.add(f"{section}.{key}")
        return cp.get(section, key, fallback=default)

    try:
        scheme_raw = get("scenario", "scheme", "")
        try:
            scheme = Scheme(scheme_raw.strip().lower())
        except ValueError:
            raise ConfigError(f"scenario.scheme must be sss or osa, got {scheme_raw!r}")

        modulation = get("scenario", "modulation", "")
        try:
            mi_raw, mq_raw = modulation.lower().split("x")
            mi, mq = int(mi_raw), int(mq_raw)
        except ValueError:
            raise ConfigError(
                f"scenario.modulation must look like '4x2', got {modulation!r}")

        def fget(section, key, default=None):
            raw = get(section, key)
            if raw is None:
                if default is None:
                    raise ConfigError(f"missing required key {key!r}")
                return default
            try:
                return float(raw)
            except ValueError:
                raise ConfigError(f"key {key!r} is not a number: {raw!r}")

        def fopt(section, key):
            raw = get(section, key)
            return None if raw is None else fget(section, key)

        def iget(section, key, default):
            value = fget(section, key, default)
            if not float(value).is_integer():
                raise ConfigError(f"{section}.{key} must be a whole number, got {value!r}")
            return int(value)

        config = ExperimentConfig(
            scheme=scheme,
            m_inphase=mi,
            m_quadrature=mq,
            p_detect=fget("scenario", "p_detect"),
            p_false_alarm=fget("scenario", "p_false_alarm"),
            prior_busy=fget("scenario", "prior_busy"),
            noise_variance=fget("scenario", "noise_variance"),
            mixture_weights=_float_list(get("mixture", "weights", "")),
            mixture_variances=_float_list(get("mixture", "variances", "")),
            p_pk_db=fget("constraints", "p_pk_db"),
            q_avg_db=fopt("constraints", "q_avg_db"),
            q_pk_db=fopt("constraints", "q_pk_db"),
            mean_gain_to_primary=fget("constraints", "mean_gain_to_primary", 1.0),
            sweep=SweepSpec(
                axis=get("sweep", "axis", "").strip(),
                start=fget("sweep", "start"),
                stop=fget("sweep", "stop"),
                step=fget("sweep", "step"),
            ),
            engines=normalize_engines(get("output", "engines", "analytic,bound,monte_carlo")),
            trials=iget("monte_carlo", "trials", DEFAULT_TRIALS),
            seed=iget("monte_carlo", "seed", DEFAULT_SEED),
            chunk_size=iget("monte_carlo", "chunk_size", DEFAULT_CHUNK),
            output_path=get("output", "path") or None,
            json_path=get("output", "json_path") or None,
            p0_db=fopt("scenario", "p0_db"),
            p1_db=fopt("scenario", "p1_db"),
        )
    except ConfigError:
        raise
    except (ValueError, configparser.Error) as exc:  # e.g. a stray '%' in a value
        raise ConfigError(f"invalid config: {exc}") from exc
    unknown = [f"{section}.{key}" for section in cp.sections() for key in cp[section]
               if f"{section}.{key}" not in read]
    if unknown:
        raise ConfigError(*(f"unknown key {name}" for name in unknown))
    return config


def parse_config_file(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


# ---------------------------------------------------------------------------
# Operating points: every model object is built and checked here
# ---------------------------------------------------------------------------

def _scenario(config: ExperimentConfig, swept: str | None) -> Scenario:
    """Build the Scenario of one operating point, checking every model rule.

    ``config`` carries the point's own values and ``swept`` names the sweep
    axis it was made for, whose dB value is then reported as a sweep value.
    The specs carry the explicit powers, the OSA cap or the peak power; the
    last is the peak policy's cap and, for SSS under the average limit, a
    placeholder the optimizer ignores. Assumes the config-wide rules of
    ``_build`` hold. Raises ConfigError with one argument per violated rule.
    """
    diags: list[str] = []

    def build(make):
        try:
            return make()
        except ValueError as exc:
            diags.append(str(exc))
            return None

    def linear(section: str, key: str) -> float | None:
        db = getattr(config, key)
        if db is None:
            return None
        try:
            value = db_to_linear(db)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            name = f"sweep value {key}" if key == swept else f"{section}.{key}"
            diags.append(f"{name} = {db:g} dB is out of range")
        return value

    def spec(power: float) -> ConstellationSpec:
        return ConstellationSpec(config.m_inphase, config.m_quadrature, power)

    p_pk, q_avg, q_pk = (linear("constraints", key)
                         for key in ("p_pk_db", "q_avg_db", "q_pk_db"))
    p0, p1 = (linear("scenario", key) for key in ("p0_db", "p1_db"))
    # the constraints and the powers need every dB value as a finite float
    converted = not diags
    sensing = build(lambda: SensingModel(config.p_detect, config.p_false_alarm,
                                         config.prior_busy))
    mixture = build(lambda: GaussianMixture.from_lists(config.mixture_weights,
                                                       config.mixture_variances))
    # unit power: the grid is checked here, each transmit power in the Scenario
    build(lambda: spec(1.0))
    constraints = build(lambda: ConstraintSet(
        peak_power=p_pk, avg_interference=q_avg, peak_interference=q_pk,
        mean_gain_to_primary=config.mean_gain_to_primary)) if converted else None
    if diags:
        raise ConfigError(*diags)

    sss = config.scheme is Scheme.SSS
    policy = "fixed"
    if q_pk is not None:
        p0 = p1 = p_pk  # cap; the instantaneous level tracks the gain
        policy = "peak_interference"
    elif p0 is not None:
        p1 = 0.0 if p1 is None else p1
        gain, p_d = config.mean_gain_to_primary, config.p_detect
        if p0 > p_pk * (1 + 1e-12) or p1 > p_pk * (1 + 1e-12):
            diags.append("explicit powers exceed the peak power constraint")
        if (1 - p_d) * p0 * gain + p_d * p1 * gain > q_avg * (1 + 1e-12):
            diags.append("explicit powers violate the average interference constraint")
    elif sss:
        p0 = p1 = p_pk
    else:
        p0 = max_power_osa(constraints, config.p_detect)
    scenario = build(lambda: Scenario(
        scheme=config.scheme,
        spec_idle=spec(p0),
        spec_busy=spec(p1) if sss else None,
        sensing=sensing,
        noise_variance=config.noise_variance,
        interference=mixture,
        constraints=constraints,
        power_policy=policy,
    ))
    if diags:
        raise ConfigError(*diags)
    return scenario


# ---------------------------------------------------------------------------
# Validation (structural + invariants, no execution)
# ---------------------------------------------------------------------------

def _build(config: ExperimentConfig) -> tuple[list[Scenario], list[str]]:
    """Build every sweep point; return their Scenarios and every violation found.

    The config-wide rules are checked first. When they hold, the config as
    written and then each sweep point are built (``_scenario``) until one
    fails, and every violation of that point is reported. The run uses the
    Scenarios, one per sweep point in order, only when nothing was found.
    """
    diags: list[str] = []
    if config.q_avg_db is None and config.q_pk_db is None:
        diags.append("one of constraints.q_avg_db / q_pk_db is required")
    if config.q_avg_db is not None and config.q_pk_db is not None:
        diags.append("q_avg_db and q_pk_db are mutually exclusive")

    if config.scheme is Scheme.OSA and config.p1_db is not None:
        diags.append("OSA forbids transmission when sensed busy: P1 = 0, remove p1_db")
    if (config.p0_db is None) != (config.p1_db is None) and config.scheme is Scheme.SSS:
        diags.append("explicit powers for SSS need both p0_db and p1_db")
    if config.p0_db is not None and config.q_pk_db is not None:
        diags.append("explicit powers cannot be combined with the peak policy")

    axis = config.sweep.axis
    if axis not in SWEEP_AXES:
        diags.append(f"sweep.axis must be one of {SWEEP_AXES}, got {axis!r}")
    count = config.sweep.count()
    if count == 0:
        diags.append("sweep range is empty (need start <= stop and step > 0)")
    elif count > MAX_SWEEP_POINTS:
        diags.append(_too_many_points(count))
    if axis == "q_avg_db" and config.q_pk_db is not None:
        diags.append("sweeping q_avg_db requires the average-interference mode")

    scenarios: list[Scenario] = []
    if not diags:
        try:
            _scenario(config, None)
            for value in config.sweep.values():
                scenarios.append(_scenario(replace(config, **{axis: value}), axis))
        except ConfigError as exc:
            diags.extend(exc.args)

    if not config.engines:
        diags.append("at least one engine is required")
    for engine in config.engines:
        if engine not in ENGINES:
            diags.append(f"unknown engine {engine!r} (choose from {ENGINES})")
    if config.trials < 1:
        diags.append("monte_carlo.trials must be >= 1")
    if config.chunk_size < 1:
        diags.append("monte_carlo.chunk_size must be >= 1")
    if config.seed < 0:
        diags.append("monte_carlo.seed must be >= 0")

    return scenarios, diags


def validate(config: ExperimentConfig) -> list[str]:
    """Return every invariant violation found (``_build``); empty means runnable."""
    return _build(config)[1]


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _closed_form_point(config: ExperimentConfig, sweep_value: float, scenario: Scenario):
    """Resolve the powers and the closed-form columns of one built sweep point.

    Returns (scenario, row) with the Monte Carlo columns still empty.
    """
    peak = scenario.power_policy == "peak_interference"
    if scenario.scheme is Scheme.SSS and not peak and config.p0_db is None:
        best = optimize_powers_sss(scenario)
        scenario = replace(scenario, spec_idle=replace(scenario.spec_idle, power=best.p0),
                           spec_busy=replace(scenario.spec_busy, power=best.p1))

    sep_analytic = sep_bound = None
    if "analytic" in config.engines:
        sep_analytic = (sep_peak_interference_exact(scenario) if peak
                        else sep_rayleigh(scenario))
    if "bound" in config.engines:
        sep_bound = (sep_peak_interference(scenario) if peak
                     else sep_upper_bound(scenario))
    p1 = 0.0 if scenario.spec_busy is None else scenario.spec_busy.power
    return scenario, ResultRow(sweep_value, scenario.spec_idle.power, p1,
                               sep_analytic, sep_bound)


# The only errors that make a point infeasible: it is reported and emitted with
# empty columns. Every other error, a programming error included, aborts the run.
_INFEASIBLE = (ConditioningError, InsufficientDataError)


def _points(config: ExperimentConfig, values: list[float], scenarios: list[Scenario],
            mc_configs: list[MonteCarloConfig], pool) -> list:
    """Each point's row, or its infeasibility error, in sweep order.

    A point's Monte Carlo chunks start as soon as its powers and closed forms
    are resolved; with a pool the workers simulate while this process
    resolves the next points. The estimates are finished afterwards, in
    sweep order.
    """
    started = []
    for index, (value, scenario) in enumerate(zip(values, scenarios)):
        try:
            scenario, row = _closed_form_point(config, value, scenario)
            finish = (start_monte_carlo(scenario, mc_configs[index], pool)
                      if mc_configs else None)
        except _INFEASIBLE as exc:
            row, finish = exc, None
        started.append((row, finish))

    outcomes = []
    for outcome, finish in started:
        if finish is not None:
            try:
                mc = finish()
                outcome = replace(outcome, sep_mc=mc.sep, sep_mc_ci95=mc.ci95_half_width,
                                  skip_fraction=mc.skip_fraction, trials=mc.trials)
            except _INFEASIBLE as exc:
                outcome = exc
        outcomes.append(outcome)
    return outcomes


def run_experiment(config: ExperimentConfig, workers: int = 1) -> list[ResultRow]:
    """Run every sweep point and write the configured outputs.

    Rows appear in sweep order. Infeasible points are reported on stderr and
    emitted with empty engine columns; a RuntimeError is raised afterwards so
    the CLI can map it to a nonzero exit. With ``workers > 1`` the Monte Carlo
    chunks of all points share one pool of up to ``workers`` processes; the
    rows do not depend on ``workers``.
    """
    scenarios, diags = _build(config)
    if workers < 1:
        diags.append(f"workers must be >= 1, got {workers}")
    if diags:
        raise ConfigError(*diags)

    values = config.sweep.values()
    # each sweep point has its own streams under the seed
    mc_configs = ([MonteCarloConfig(trials=config.trials, master_seed=config.seed,
                                    chunk_size=config.chunk_size, point=index)
                   for index in range(len(values))]
                  if "monte_carlo" in config.engines else [])
    pool = monte_carlo_pool(workers, mc_configs)
    try:
        outcomes = _points(config, values, scenarios, mc_configs, pool)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    rows: list[ResultRow] = []
    failures: list[str] = []
    for value, outcome in zip(values, outcomes):
        if isinstance(outcome, ResultRow):
            rows.append(outcome)
            continue
        failures.append(f"sweep point {value:g}: {outcome}")
        print(f"cogsep: infeasible sweep point {value:g}: {outcome}", file=sys.stderr)
        rows.append(ResultRow(value))

    if config.output_path:
        write_csv(rows, config.output_path)
    if config.json_path:
        write_json(rows, config.json_path)
    if failures:
        raise RuntimeError(f"{len(failures)} sweep point(s) failed: " +
                           "; ".join(failures))
    return rows


# ---------------------------------------------------------------------------
# Output formats
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return f"{value:.9g}"


def _row_strings(row: ResultRow) -> list[str]:
    return [_fmt(getattr(row, column)) for column in CSV_COLUMNS]


def write_csv(rows: list[ResultRow], path: str) -> None:
    """UTF-8 CSV, LF line endings, 9 significant digits per decimal value."""
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(_row_strings(row)) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(rows: list[ResultRow], path: str) -> None:
    """JSON mirror of the CSV carrying numerically identical values."""
    payload = []
    for row in rows:
        cells = _row_strings(row)
        record = {}
        for column, cell in zip(CSV_COLUMNS, cells):
            if cell == "":
                record[column] = None
            elif column == "trials":
                record[column] = int(cell)
            else:
                record[column] = float(cell)
        payload.append(record)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
