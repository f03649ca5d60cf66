"""Experiment configs, sweep execution, and machine-readable results.

Configs are flat ``key = value`` files with ``[section]`` headers (sections:
scenario, mixture, constraints, sweep, monte_carlo, output). Each sweep point
is the config with the swept key replaced by the point's value, built into a
Scenario by ``_scenario``; ``validate`` builds the config as written and every
sweep point the same way, so a config it accepts builds at every point. For
each point the runner resolves the transmit powers from the active constraint
mode (average-interference optimization / cap, or the instantaneous peak
policy), evaluates the requested engines, and writes one CSV row; an optional
JSON mirror carries the identical numbers. Only a zero-probability sensing
decision or a Monte Carlo estimate with every trial skipped makes a point
infeasible (an empty row); any other error aborts the run.
"""

import configparser
import json
import math
import sys
from dataclasses import dataclass, replace

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
    SepEstimate,
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


CSV_COLUMNS = (
    "sweep_value", "p0", "p1", "sep_analytic", "sep_bound",
    "sep_mc", "sep_mc_ci95", "skip_fraction", "trials",
)

# validate() builds every sweep point, about 1 ms each: 10 000 points take ~10 s
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
        return [self.start + i * self.step for i in range(count)]


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
    """One sweep point. Engine columns are None when not requested."""

    sweep_value: float
    p0: float | None
    p1: float | None
    sep_analytic: float | None
    sep_bound: float | None
    sep_mc: float | None
    sep_mc_ci95: float | None
    skip_fraction: float | None
    trials: int | None


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def parse_config(text: str) -> ExperimentConfig:
    """Parse a config document; raises ConfigError with a diagnostic."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    def need(section: str) -> configparser.SectionProxy:
        if not cp.has_section(section):
            raise ConfigError(f"missing required section [{section}]")
        return cp[section]

    scn = need("scenario")
    mix = need("mixture")
    con = need("constraints")
    swp = need("sweep")
    mc = cp["monte_carlo"] if cp.has_section("monte_carlo") else {}
    out = cp["output"] if cp.has_section("output") else {}

    try:
        scheme_raw = scn.get("scheme", "")
        try:
            scheme = Scheme(scheme_raw.strip().lower())
        except ValueError:
            raise ConfigError(f"scenario.scheme must be sss or osa, got {scheme_raw!r}")

        modulation = scn.get("modulation", "")
        try:
            mi_raw, mq_raw = modulation.lower().split("x")
            mi, mq = int(mi_raw), int(mq_raw)
        except ValueError:
            raise ConfigError(
                f"scenario.modulation must look like '4x2', got {modulation!r}")

        def fget(section, key, default=None):
            raw = section.get(key)
            if raw is None:
                if default is None:
                    raise ConfigError(f"missing required key {key!r}")
                return default
            try:
                return float(raw)
            except ValueError:
                raise ConfigError(f"key {key!r} is not a number: {raw!r}")

        def fopt(section, key):
            raw = section.get(key)
            return None if raw is None else fget(section, key)

        engines = normalize_engines(out.get("engines", "analytic,bound,monte_carlo"))

        return ExperimentConfig(
            scheme=scheme,
            m_inphase=mi,
            m_quadrature=mq,
            p_detect=fget(scn, "p_detect"),
            p_false_alarm=fget(scn, "p_false_alarm"),
            prior_busy=fget(scn, "prior_busy"),
            noise_variance=fget(scn, "noise_variance"),
            mixture_weights=_float_list(mix.get("weights", "")),
            mixture_variances=_float_list(mix.get("variances", "")),
            p_pk_db=fget(con, "p_pk_db"),
            q_avg_db=fopt(con, "q_avg_db"),
            q_pk_db=fopt(con, "q_pk_db"),
            mean_gain_to_primary=fget(con, "mean_gain_to_primary", 1.0),
            sweep=SweepSpec(
                axis=swp.get("axis", "").strip(),
                start=fget(swp, "start"),
                stop=fget(swp, "stop"),
                step=fget(swp, "step"),
            ),
            engines=engines,
            trials=int(fget(mc, "trials", DEFAULT_TRIALS)),
            seed=int(fget(mc, "seed", DEFAULT_SEED)),
            chunk_size=int(fget(mc, "chunk_size", DEFAULT_CHUNK)),
            output_path=out.get("path") or None,
            json_path=out.get("json_path") or None,
            p0_db=fopt(scn, "p0_db"),
            p1_db=fopt(scn, "p1_db"),
        )
    except ConfigError:
        raise
    except Exception as exc:  # defensive: surface anything else as a config error
        raise ConfigError(f"invalid config: {exc}") from exc


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
    last is the peak policy's cap and, for SSS under the average limit, the
    optimizer's template. Assumes the config-wide rules of ``validate`` hold.
    Raises ConfigError with one argument per violated rule.
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

def validate(config: ExperimentConfig) -> list[str]:
    """Return every invariant violation found; empty means runnable.

    The config-wide rules are checked here. When they hold, the config as
    written and then each sweep point are built as the run builds them
    (``_scenario``) until one fails, and every violation of that point is
    reported.
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

    if not diags:
        points = [(config, None)] + [(replace(config, **{axis: value}), axis)
                                     for value in config.sweep.values()]
        for point, swept in points:
            try:
                _scenario(point, swept)
            except ConfigError as exc:
                diags.extend(exc.args)
                break

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

    return diags


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _closed_form_point(config: ExperimentConfig, sweep_value: float):
    """Build one sweep point, resolve its powers and its closed-form columns.

    Returns (scenario, row) with the Monte Carlo columns still empty.
    """
    point = replace(config, **{config.sweep.axis: sweep_value})
    scenario = _scenario(point, config.sweep.axis)
    peak = scenario.power_policy == "peak_interference"
    if scenario.scheme is Scheme.SSS and not peak and point.p0_db is None:
        best = optimize_powers_sss(scenario.spec_idle, scenario.sensing,
                                   scenario.noise_variance, scenario.interference,
                                   scenario.constraints)
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
                               sep_analytic, sep_bound, None, None, None, None)


def _mc_config(config: ExperimentConfig, index: int) -> MonteCarloConfig:
    return MonteCarloConfig(
        trials=config.trials,
        master_seed=config.seed,
        chunk_size=config.chunk_size,
        point=index,  # each sweep point has its own streams under the seed
    )


def _with_estimate(row: ResultRow, estimate: SepEstimate) -> ResultRow:
    return replace(row, sep_mc=estimate.sep, sep_mc_ci95=estimate.ci95_half_width,
                   skip_fraction=estimate.skip_fraction, trials=estimate.trials)


# The only errors that make a point infeasible: it is reported and emitted with
# empty columns. Every other error, a programming error included, aborts the run.
_INFEASIBLE = (ConditioningError, InsufficientDataError)


def _points(config: ExperimentConfig, values: list[float],
            mc_configs: list[MonteCarloConfig], pool) -> list:
    """Each point's row, or its infeasibility error, in sweep order.

    A point's Monte Carlo chunks start as soon as its powers and closed forms
    are resolved; with a pool the workers simulate while this process
    resolves the next points. The estimates are finished afterwards, in
    sweep order.
    """
    started = []
    for index, value in enumerate(values):
        try:
            scenario, row = _closed_form_point(config, value)
            finish = (start_monte_carlo(scenario, mc_configs[index], pool)
                      if mc_configs else None)
        except _INFEASIBLE as exc:
            row, finish = exc, None
        started.append((row, finish))

    outcomes = []
    for outcome, finish in started:
        if finish is not None:
            try:
                outcome = _with_estimate(outcome, finish())
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
    diags = validate(config)
    if workers < 1:
        diags.append(f"workers must be >= 1, got {workers}")
    if diags:
        raise ConfigError(*diags)

    values = config.sweep.values()
    mc_configs = ([_mc_config(config, index) for index in range(len(values))]
                  if "monte_carlo" in config.engines else [])
    pool = monte_carlo_pool(workers, mc_configs)
    try:
        outcomes = _points(config, values, mc_configs, pool)
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
        rows.append(ResultRow(value, None, None, None, None, None, None, None, None))

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
    return [
        _fmt(row.sweep_value), _fmt(row.p0), _fmt(row.p1),
        _fmt(row.sep_analytic), _fmt(row.sep_bound), _fmt(row.sep_mc),
        _fmt(row.sep_mc_ci95), _fmt(row.skip_fraction), _fmt(row.trials),
    ]


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
