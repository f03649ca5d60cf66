"""Experiment configs, sweep execution, and machine-readable results.

Configs are flat ``key = value`` files with ``[section]`` headers (sections:
scenario, mixture, constraints, sweep, monte_carlo, output). Each sweep point
is the config with the point's value in place of the swept key's, built into
a Scenario by ``_scenario``. ``_build`` builds the config as written and
every sweep point; ``validate`` reports its diagnostics and the run uses the
Scenarios it built, so each point is built once and a config ``validate``
accepts runs at every point. The runner resolves the transmit powers from
the active constraint mode (average-interference optimization / cap, or the
instantaneous peak policy) and evaluates each requested closed form once per
sweep, over all its points, before any Monte Carlo task starts; then it runs
the Monte Carlo estimates of the feasible points in one ``run_estimates``
call, which makes and shuts down any thread pool itself, and writes one CSV
row per point; an optional JSON mirror carries the identical numbers.
Only a zero-probability sensing decision or a Monte Carlo estimate with every
trial skipped makes a point infeasible (an empty row); any other error aborts
the run.
"""

import configparser
import math
import sys
from dataclasses import dataclass, fields, replace

from .analytic import (
    ConstraintSet,
    Scenario,
    Scheme,
    _Sweep,
    max_power_osa,
    optimize_powers_sss,
    sep_peak_interference,
    sep_peak_interference_exact,
    sep_rayleigh,
    sep_upper_bound,
)
from .mathcore import GaussianMixture, _check_integer
from .modulation import ConstellationSpec
from .sensing import ConditioningError, SensingModel
from .simulation import (
    InsufficientDataError,
    MonteCarloConfig,
    run_estimates,
    run_monte_carlo,  # noqa: F401  (kept at this name for code that wraps it here)
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


# each sweep point is built once, in 8-14 us (2-core x86-64 VM): 10 000 take < 0.2 s
MAX_SWEEP_POINTS = 10_000
DEFAULT_TRIALS = 200_000
DEFAULT_SEED = 12345


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
    sweep: SweepSpec
    engines: tuple[str, ...]
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED
    chunk_size: int = MonteCarloConfig.chunk_size
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
        try:
            return cp.get(section, key, fallback=default)
        except configparser.InterpolationError as exc:  # e.g. a stray '%'
            raise ConfigError(f"{section}.{key} has an invalid value: {exc.message}")

    def flist(section: str, key: str) -> tuple[float, ...]:
        raw = get(section, key, "")
        try:
            return _float_list(raw)
        except ValueError:
            raise ConfigError(f"{section}.{key} is not a list of numbers: {raw!r}")

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
                raise ConfigError(f"missing required key {section}.{key}")
            return default
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{section}.{key} is not a number: {raw!r}")

    def fopt(section, key):
        raw = get(section, key)
        return None if raw is None else fget(section, key)

    def iget(section, key, default):
        raw = get(section, key)
        try:
            return default if raw is None else int(raw)  # every digit, as --seed
        except ValueError:
            value = fget(section, key)
        if not (value.is_integer() and abs(value) < 2**53):  # a float holds it exactly
            raise ConfigError(f"{section}.{key} must be a whole number (a decimal or "
                              f"exponent form only below 2**53), got {raw!r}")
        return int(value)

    config = ExperimentConfig(
        scheme=scheme,
        m_inphase=mi,
        m_quadrature=mq,
        p_detect=fget("scenario", "p_detect"),
        p_false_alarm=fget("scenario", "p_false_alarm"),
        prior_busy=fget("scenario", "prior_busy"),
        noise_variance=fget("scenario", "noise_variance"),
        mixture_weights=flist("mixture", "weights"),
        mixture_variances=flist("mixture", "variances"),
        p_pk_db=fget("constraints", "p_pk_db"),
        q_avg_db=fopt("constraints", "q_avg_db"),
        q_pk_db=fopt("constraints", "q_pk_db"),
        sweep=SweepSpec(
            axis=get("sweep", "axis", "").strip(),
            start=fget("sweep", "start"),
            stop=fget("sweep", "stop"),
            step=fget("sweep", "step"),
        ),
        engines=normalize_engines(get("output", "engines", "analytic,bound,monte_carlo")),
        trials=iget("monte_carlo", "trials", DEFAULT_TRIALS),
        seed=iget("monte_carlo", "seed", DEFAULT_SEED),
        chunk_size=iget("monte_carlo", "chunk_size", MonteCarloConfig.chunk_size),
        output_path=get("output", "path") or None,
        json_path=get("output", "json_path") or None,
        p0_db=fopt("scenario", "p0_db"),
        p1_db=fopt("scenario", "p1_db"),
    )
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

# the dB keys a point converts to linear units, with their config sections
_DB_KEYS = {"p_pk_db": "constraints", "q_avg_db": "constraints", "q_pk_db": "constraints",
            "p0_db": "scenario", "p1_db": "scenario"}


def _linear(db: float | None) -> float | None:
    """``db`` in linear units, inf where that overflows; None stays None."""
    if db is None:
        return None
    try:
        return db_to_linear(db)
    except OverflowError:
        return math.inf


def _scenario(config: ExperimentConfig, swept: str | None, value: float | None = None,
              built: dict | None = None) -> Scenario:
    """Build the Scenario of one operating point, checking every model rule.

    ``swept`` names the sweep axis the point was made for, and ``value`` is
    its value there, read in place of the config's; a swept dB value is
    reported as a sweep value. With ``swept`` None the point is the config as
    written. ``built`` holds what earlier points of ``config`` built: the
    config's dB values in linear units, and each model object (the mixture
    with the grid check, a SensingModel, a ConstraintSet, a
    ConstellationSpec) keyed by its constructor and inputs. The point takes
    what it shares and adds what it builds. So a sweep point converts only
    its swept value and builds only its Scenario and the objects that value
    changes, and each object's constructor still checks its rules the first
    time. The specs carry the explicit powers, the OSA cap or the peak power;
    the last is the peak policy's cap and, for SSS under the average limit, a
    placeholder the optimizer ignores. Assumes the config-wide rules of
    ``_build`` hold. Raises ConfigError with one argument per violated rule.
    """
    diags: list[str] = []
    built = {} if built is None else built

    def made(key):
        """``key[0](*key[1:])``, kept in ``built``; None, with a diagnostic,
        where its constructor refuses the inputs."""
        try:
            built[key] = key[0](*key[1:])
        except ValueError as exc:
            diags.append(str(exc))
            return None
        return built[key]

    powers = built.get(_linear)  # the config's dB values, converted once
    if powers is None:
        powers = built[_linear] = {key: _linear(getattr(config, key)) for key in _DB_KEYS}
    if swept in powers:
        powers = {**powers, swept: _linear(value)}
    for key, power in powers.items():
        if power is not None and not math.isfinite(power):
            name, db = ((f"sweep value {key}", value) if key == swept
                        else (f"{_DB_KEYS[key]}.{key}", getattr(config, key)))
            diags.append(f"{name} = {db:g} dB is out of range")
    p_pk, q_avg, q_pk, p0, p1 = powers.values()
    # the constraints and the powers need every dB value as a finite float
    converted = not diags
    p_d = value if swept == "p_detect" else config.p_detect
    p_f = value if swept == "p_false_alarm" else config.p_false_alarm
    sensing = built.get(key := (SensingModel, p_d, p_f, config.prior_busy)) or made(key)
    mixture = built.get(key := (GaussianMixture.from_lists, tuple(config.mixture_weights),
                                tuple(config.mixture_variances))) or made(key)
    # unit power: the grid is checked here, each transmit power in the Scenario
    grid = ConstellationSpec, config.m_inphase, config.m_quadrature
    built.get(key := (*grid, 1.0)) or made(key)
    constraints = (built.get(key := (ConstraintSet, p_pk, q_avg, q_pk)) or made(key)
                   if converted else None)
    if diags:
        raise ConfigError(*diags)

    sss = config.scheme is Scheme.SSS
    policy = "fixed"
    if q_pk is not None:
        p0 = p1 = p_pk  # cap; the instantaneous level tracks the gain
        policy = "peak_interference"
    elif p0 is not None:
        p1 = 0.0 if p1 is None else p1
        if p0 > p_pk * (1 + 1e-12) or p1 > p_pk * (1 + 1e-12):
            diags.append("explicit powers exceed the peak power constraint")
        if (1 - p_d) * p0 + p_d * p1 > q_avg * (1 + 1e-12):
            diags.append("explicit powers violate the average interference constraint")
    elif sss:
        p0 = p1 = p_pk
    else:
        p0 = max_power_osa(constraints, p_d)
    # the specs, then the Scenario: the first that fails ends the point
    idle = built.get(key := (*grid, p0)) or made(key)
    busy = (built.get(key := (*grid, p1)) or made(key)) if sss and idle else None
    if idle and (busy or not sss):
        try:
            scenario = Scenario(scheme=config.scheme, spec_idle=idle, spec_busy=busy,
                                sensing=sensing, noise_variance=config.noise_variance,
                                interference=mixture, constraints=constraints,
                                power_policy=policy)
        except ValueError as exc:
            diags.append(str(exc))
    if diags:
        raise ConfigError(*diags)
    return scenario


# ---------------------------------------------------------------------------
# Validation (structural + invariants, no execution)
# ---------------------------------------------------------------------------

def _build(config: ExperimentConfig) -> tuple[_Sweep, list[str]]:
    """Build every sweep point; return their Scenarios and every violation found.

    The config-wide rules are checked first. When they hold, the config as
    written and then each sweep point are built (``_scenario``) until one
    fails, and every violation of that point is reported. All of them build
    into one dict of model objects keyed by their inputs, which also holds
    the config's dB values in linear units, so a point converts only its
    swept value and builds only the objects that value changes: the mixture,
    which is never swept, and the grid check are built once, and e.g. a
    ``p_detect`` sweep shares one ConstraintSet. The run uses the Scenarios,
    one ``_Sweep`` in sweep order, only when nothing was found.
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

    scenarios = _Sweep()
    if not diags:
        built: dict = {}
        try:
            _scenario(config, None, None, built)
            for value in config.sweep.values():
                scenarios.append(_scenario(config, axis, value, built))
        except ConfigError as exc:
            diags.extend(exc.args)

    if not config.engines:
        diags.append("at least one engine is required")
    for engine in config.engines:
        if engine not in ENGINES:
            diags.append(f"unknown engine {engine!r} (choose from {ENGINES})")
    try:
        # the rules the run applies to each point's MonteCarloConfig
        MonteCarloConfig(config.trials, config.seed, config.chunk_size)
    except ValueError as exc:
        diags.append(f"monte_carlo: {exc}")

    return scenarios, diags


def validate(config: ExperimentConfig) -> list[str]:
    """Return every invariant violation found (``_build``); empty means runnable."""
    return _build(config)[1]


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _resolve_powers(config: ExperimentConfig, scenarios: _Sweep) -> _Sweep:
    """The sweep's Scenarios with the SSS powers under the average limit
    solved, by one ``optimize_powers_sss`` call for the whole sweep.

    The need is config-wide (SSS, average limit, no explicit powers), so the
    optimizer runs at every point or at none. The tables it built stay.
    """
    if config.scheme is not Scheme.SSS or config.q_pk_db is not None or config.p0_db is not None:
        return scenarios
    mi, mq = config.m_inphase, config.m_quadrature
    return _Sweep((Scenario(s.scheme, ConstellationSpec(mi, mq, best.p0),
                            ConstellationSpec(mi, mq, best.p1), s.sensing, s.noise_variance,
                            s.interference, s.constraints, s.power_policy)
                   for s, best in zip(scenarios, optimize_powers_sss(scenarios))),
                  scenarios.tables)


def _closed_form_rows(config: ExperimentConfig, values: list[float],
                      scenarios: list[Scenario]) -> list:
    """Each sweep point's row with resolved powers and the Monte Carlo columns
    still empty, or its ConditioningError, in sweep order.

    Each requested closed form runs once for the whole sweep, on the
    sequence of its Scenarios. The power policy is config-wide, as the
    optimizer's need is (``_resolve_powers``).
    """
    peak = config.q_pk_db is not None
    columns = {}
    if "analytic" in config.engines:
        columns["sep_analytic"] = (sep_peak_interference_exact if peak
                                   else sep_rayleigh)(scenarios)
    if "bound" in config.engines:
        columns["sep_bound"] = (sep_peak_interference if peak else sep_upper_bound)(scenarios)
    rows = []
    for index, (value, scenario) in enumerate(zip(values, scenarios)):
        cells = {name: column[index] for name, column in columns.items()}
        error = next((cell for cell in cells.values() if isinstance(cell, ConditioningError)),
                     None)
        p1 = 0.0 if scenario.spec_busy is None else scenario.spec_busy.power
        rows.append(ResultRow(value, scenario.spec_idle.power, p1, **cells)
                    if error is None else error)
    return rows


def _points(config: ExperimentConfig, values: list[float], scenarios: list[Scenario],
            workers: int) -> list:
    """Each point's row, or its infeasibility error, in sweep order.

    The powers of the whole sweep are resolved first (``_resolve_powers``),
    then its closed forms, each by one call for the whole sweep
    (``_closed_form_rows``), before any Monte Carlo (MC) task starts. Then
    one ``run_estimates`` call runs the MC of every feasible point, on up
    to ``workers`` threads, and fills their rows.
    """
    scenarios = _resolve_powers(config, scenarios)
    rows = _closed_form_rows(config, values, scenarios)
    if "monte_carlo" not in config.engines:
        return rows
    feasible = [index for index, row in enumerate(rows) if isinstance(row, ResultRow)]
    # each sweep point has its own streams under the seed
    estimates = run_estimates(
        [(scenarios[index], MonteCarloConfig(trials=config.trials, master_seed=config.seed,
                                             chunk_size=config.chunk_size, point=index))
         for index in feasible], workers)
    for index, mc in zip(feasible, estimates):
        # only InsufficientDataError, every trial skipped, comes back as a value
        rows[index] = mc if isinstance(mc, InsufficientDataError) else replace(
            rows[index], sep_mc=mc.sep, sep_mc_ci95=mc.ci95_half_width,
            skip_fraction=mc.skip_fraction, trials=mc.trials)
    return rows


def run_experiment(config: ExperimentConfig, workers: int = 1) -> list[ResultRow]:
    """Run every sweep point and write the configured outputs.

    Rows appear in sweep order. The sweep's powers and then its closed forms
    are evaluated first, each by one call for the whole sweep, before any
    Monte Carlo task starts (``_points``). Infeasible points are reported on
    stderr and emitted with empty engine columns; a RuntimeError is raised
    afterwards so the CLI can map it to a nonzero exit. ``workers`` must be
    an integer >= 1, whatever the engines; with ``workers > 1`` the Monte
    Carlo estimates of all points share one pool of up to ``workers``
    threads. The rows do not depend on ``workers``.
    """
    scenarios, diags = _build(config)
    try:
        _check_integer("workers", workers, 1)
    except ValueError as exc:
        diags.append(str(exc))
    if diags:
        raise ConfigError(*diags)

    values = config.sweep.values()
    outcomes = _points(config, values, scenarios, workers)

    rows: list[ResultRow] = []
    failures: list[str] = []
    for value, outcome in zip(values, outcomes):
        if isinstance(outcome, ResultRow):
            rows.append(outcome)
            continue
        failures.append(f"sweep point {value:g}: {outcome}")
        print(f"cogsep: infeasible sweep point {value:g}: {outcome}", file=sys.stderr)
        rows.append(ResultRow(value))

    if config.output_path or config.json_path:
        cells = [_row_strings(row) for row in rows]  # formatted once for both writers
        if config.output_path:
            write_csv(rows, config.output_path, cells=cells)
        if config.json_path:
            write_json(rows, config.json_path, cells=cells)
    if failures:
        raise RuntimeError(f"{len(failures)} sweep point(s) failed: " +
                           "; ".join(failures))
    return rows


# ---------------------------------------------------------------------------
# Output formats
# ---------------------------------------------------------------------------

def _row_strings(row: ResultRow) -> list[str]:
    """Each column's CSV cell: empty, an integer, or 9 significant digits."""
    return ["" if value is None else str(value) if isinstance(value, int) else f"{value:.9g}"
            for value in (getattr(row, column) for column in CSV_COLUMNS)]


def write_csv(rows: list[ResultRow], path: str, *, cells: list | None = None) -> None:
    """UTF-8 CSV, LF line endings, 9 significant digits per decimal value.
    ``cells`` are the rows' ``_row_strings``, if the caller has them already."""
    if cells is None:
        cells = map(_row_strings, rows)
    lines = [",".join(CSV_COLUMNS), *map(",".join, cells)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ``json.dumps``'s spelling of the floats JSON has no literal for, by their repr
_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _json_cell(column: str, cell: str) -> str:
    """The JSON text of one CSV cell: null, an integer, or the float the cell reads as."""
    if cell == "":
        return "null"
    if column == "trials":
        return str(int(cell))
    text = repr(float(cell))
    return _NONFINITE.get(text, text)


def write_json(rows: list[ResultRow], path: str, *, cells: list | None = None) -> None:
    """JSON mirror of the CSV carrying numerically identical values, in the
    bytes ``json.dumps(records, indent=2)`` gives, written out directly.
    ``cells`` are as for ``write_csv``."""
    if cells is None:
        cells = map(_row_strings, rows)
    records = [",\n".join(f'    "{column}": {_json_cell(column, cell)}'
                          for column, cell in zip(CSV_COLUMNS, row_cells))
               for row_cells in cells]
    text = "[\n  {\n" + "\n  },\n  {\n".join(records) + "\n  }\n]" if records else "[]"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")
