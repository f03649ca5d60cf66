"""cogsep benchmark: one workload per run, correctness checked, metrics as JSON.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. cogsep is imported from ``src/`` of the same
checkout; nothing needs installing. With ``--trace 0`` the run times passes
of the workload's fixed inputs for ``--seconds`` (it starts a pass only if
one as long as the last still fits, and makes at least three) and reports
the end-to-end metrics, with set-up and pass times rescaled by a
calibration kernel timed between them (see README.md). With ``--trace 1`` it alternates untraced and traced
passes (at least two of each) and reports the per-layer metrics from the
spans of the traced ones. The last line of standard output is the result
object; the line before it is the run context. Spans and the run record are
written under ``.bench_build/perfbench/``.

Exit codes: 0 all checks passed, 1 a correctness check failed (the result is
still printed), 2 the program or the benchmark's own files are missing.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_build", "perfbench")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

DEFAULT_SEED = 12345
MIN_PASSES = 3           # timed passes per run; a median needs three
MIN_TRACE_PASSES = 2     # each of untraced and traced in a --trace 1 run
SETUP_REPEATS = 3
# After each pass, calibration units run for this share of the pass's wall time.
CALIBRATION_SHARE = 0.15

sys.path.insert(0, SRC)
try:
    import cogsep
except ImportError:
    cogsep = None

if cogsep is None or not os.path.abspath(cogsep.__file__).startswith(SRC + os.sep):
    print(f"perfbench: cogsep sources not found under {SRC}", file=sys.stderr)
    sys.exit(2)

import numpy  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, instrument  # noqa: E402


def seed_arg(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return seed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=seed_arg, default=DEFAULT_SEED,
                        help="sets the MC master seed and jitters the oracle grid")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long to keep running passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Machine and program context
# ---------------------------------------------------------------------------

def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the cogsep sources, for checkouts without .git."""
    package = os.path.dirname(os.path.abspath(cogsep.__file__))
    digest = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def context(args, passes: int) -> dict:
    sweep = workloads.SWEEPS.get(args.workload)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "trials_per_point": (workloads.figure_preset("fig1").trials
                             if sweep and "monte_carlo" in sweep.engines else 0),
        "workers": sweep.workers if sweep else 1,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cogsep": cogsep.__version__,
        "cogsep_git_sha": git_sha(),
        "cogsep_src_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# Workload drivers: a timed ``run`` and an untimed ``collect`` per pass
# ---------------------------------------------------------------------------

def output_digests(configs: dict) -> dict:
    """SHA-256 of each preset's CSV and JSON bytes."""
    out = {}
    for name, config in configs.items():
        digest = hashlib.sha256()
        for path in (config.output_path, config.json_path):
            with open(path, "rb") as fh:
                digest.update(fh.read())
        out[name] = digest.hexdigest()
    return out


class SweepDriver:
    def __init__(self, workload: str, seed: int, outdir: str):
        self.workload, self.seed, self.outdir = workload, seed, outdir
        self.spec = workloads.SWEEPS[workload]
        self.configs = workloads.build(workload, seed, outdir)

    def run(self, tracer, label):
        return workloads.run_sweep_pass(self.configs, self.spec.workers, tracer, label)

    def collect(self, results):
        written = {name: r for name, r in results.items() if r.error is None}
        return results, output_digests({name: self.configs[name] for name in written})

    def single_worker_digests(self) -> dict:
        """Outputs of the same inputs run with workers=1, in a directory of their own."""
        outdir = os.path.join(self.outdir, "workers1")
        os.makedirs(outdir)
        configs = workloads.sweep_configs(self.workload, self.seed, outdir)
        workloads.run_sweep_pass(configs, 1, Tracer(enabled=False), "workers1")
        return output_digests(configs)

    def verify(self, collected: list, report: dict) -> tuple[int, int, list]:
        reference = checks.load_reference()
        engines = self.spec.engines
        with_mc = "monte_carlo" in engines
        n_rows = sum(len(reference[name]) for name in self.configs)
        row_alpha = checks.MC_FAMILY_ALPHA / n_rows
        w1_digests = self.single_worker_digests() if self.spec.workers > 1 else None

        attempted = failed = 0
        messages = []
        worst_z = 0.0
        bytes_equal = True
        for results, digests in collected:
            for name, result in results.items():
                expected = reference[name]
                attempted += len(expected)
                if result.error is not None:
                    failed += len(expected)
                    messages.append(f"{name}: {result.error}")
                    continue
                row_failures = checks.check_sweep_rows(
                    name, result.rows, engines, reference, row_alpha)
                if w1_digests is not None and digests[name] != w1_digests[name]:
                    bytes_equal = False
                    row_failures = [f"{name}: workers={self.spec.workers} output bytes "
                                    "differ from workers=1"] * len(row_failures)
                bad = [message for message in row_failures if message]
                failed += len(bad)
                messages.extend(bad)
                if with_mc and not bad:
                    worst_z = max(worst_z, checks.max_abs_z(
                        result.rows, [ref["sep_analytic"] for ref in expected]))
        report["reference_rel_tol"] = checks.REFERENCE_REL_TOL
        if with_mc:
            report.update(mc_family_alpha=checks.MC_FAMILY_ALPHA, mc_row_alpha=row_alpha,
                          mc_max_abs_z=worst_z)
        if w1_digests is not None:
            report["bytes_equal_workers_1"] = bytes_equal
        return attempted, failed, messages


class OracleDriver:
    def __init__(self, workload: str, seed: int, outdir: str):
        self.cases = workloads.build(workload, seed, outdir)

    def run(self, tracer, label):
        return workloads.run_oracle_pass(self.cases, tracer, label)

    def collect(self, results):
        return results

    def verify(self, collected: list, report: dict) -> tuple[int, int, list]:
        attempted = failed = 0
        messages = []
        worst = {kind: {"abs": 0.0, "rel": 0.0} for kind in workloads.ORACLE_TOLERANCE}
        for results in collected:
            for case, result in zip(self.cases, results):
                attempted += 1
                if result.error is not None:
                    failed += 1
                    messages.append(f"{case.kind}: {result.error}")
                    continue
                tolerance = workloads.ORACLE_TOLERANCE[case.kind]
                message = checks.check_oracle(case.kind, result.closed, result.oracle,
                                              tolerance)
                if message:
                    failed += 1
                    messages.append(message)
                gap = worst[case.kind]
                gap["abs"] = max(gap["abs"], abs(result.closed - result.oracle))
                gap["rel"] = max(gap["rel"], checks.rel_gap(result.closed, result.oracle))
        report["oracle_tolerance"] = workloads.ORACLE_TOLERANCE
        report["oracle_worst_gap"] = worst
        return attempted, failed, messages


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class Calibration:
    """Times fixed work that does not touch cogsep, to gauge the CPU's current speed.

    The work runs in a child process (``calibrate.py``) while this one
    waits, so it never counts in this process's peak memory.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "calibrate.py")],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def measure(self, unit: str, duration: float) -> float:
        """Mean seconds per ``unit`` over at least ``duration`` seconds."""
        self.proc.stdin.write(f"{unit} {duration!r}\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


# Per calibration unit, the unit time that measured times are rescaled to.
REFERENCE_UNIT_S = {"interpreter": 0.005, "vector": 0.009}
# Set-up and the interpreter-bound workloads are gauged with the interpreter
# unit. Monte Carlo passes slow down with memory-bound vector code rather
# than with the interpreter, so they are gauged with the vector unit.
SETUP_UNIT = "interpreter"
PASS_UNIT = {
    "analytic-sweep": "interpreter",
    "oracle-certify": "interpreter",
    "mc-sweep": "vector",
    "mc-sweep-w2": "vector",
}


def rescaled(walls: list, units: list, unit: str) -> list:
    """Each wall time scaled to the reference unit time."""
    return [wall * REFERENCE_UNIT_S[unit] / time_ for wall, time_ in zip(walls, units)]


def measure_setup(workload: str, seed: int, outdir: str, calibration: Calibration):
    """Fresh interpreters importing cogsep and building the inputs.

    Returns (probe walls, mean calibration unit time around each probe).
    """
    probe = os.path.join(HERE, "setup_probe.py")
    walls, units = [], []
    before = calibration.measure(SETUP_UNIT, 0.0)
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, probe, workload, str(seed), outdir],
                       cwd=ROOT, check=True)
        walls.append(time.perf_counter() - started)
        after = calibration.measure(SETUP_UNIT, CALIBRATION_SHARE * walls[-1])
        units.append(0.5 * (before + after))
        before = after
    return walls, units


def room_for_another(started: float, seconds: float, last_pass: float) -> bool:
    """True while a pass as long as the last one still ends inside the window."""
    return time.perf_counter() - started + last_pass <= seconds


def timed_passes(driver, seconds: float, calibration: Calibration, unit: str):
    """Timed passes, with a calibration before the first and after each.

    Returns (pass walls, mean calibration unit time around each pass, collected).
    """
    walls, units, collected = [], [], []
    started = time.perf_counter()
    disabled = Tracer(enabled=False)
    before = calibration.measure(unit, 0.0)
    while len(walls) < MIN_PASSES or room_for_another(
            started, seconds, walls[-1] * (1.0 + CALIBRATION_SHARE)):
        t0 = time.perf_counter()
        results = driver.run(disabled, f"pass{len(walls)}")
        walls.append(time.perf_counter() - t0)
        after = calibration.measure(unit, CALIBRATION_SHARE * walls[-1])
        units.append(0.5 * (before + after))
        before = after
        collected.append(driver.collect(results))
    return walls, units, collected


def traced_passes(driver, seconds: float):
    """Alternate untraced and traced passes; returns (untraced walls, tracer, collected)."""
    tracer = Tracer()
    disabled = Tracer(enabled=False)
    untraced, collected = [], []
    traced = 0
    last = 0.0
    started = time.perf_counter()
    while (min(len(untraced), traced) < MIN_TRACE_PASSES
           or room_for_another(started, seconds, last)):
        label = f"pass{len(untraced) + traced}"
        t0 = time.perf_counter()
        if len(untraced) <= traced:
            results = driver.run(disabled, label)
            untraced.append(time.perf_counter() - t0)
        else:
            tracer.group = label
            with instrument(tracer), tracer.span("bench.pass"):
                results = driver.run(tracer, label)
            traced += 1
        last = time.perf_counter() - t0
        collected.append(driver.collect(results))
    return untraced, tracer, collected


def layer_metrics(tracer: Tracer, untraced: list) -> dict:
    """Per-layer metrics, each per traced pass."""
    passes = [s for s in tracer.spans if s[0] == "bench.pass"]
    n = len(passes)
    self_s = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts

    def per_pass(value):
        return value / n

    mc_s = self_s.get("simulation.run_monte_carlo", 0.0)
    drawn = counts["simulation.trials_drawn"]
    traced_wall = per_pass(sum(end - start for _, start, end, _, _ in passes))
    untraced_wall = statistics.fmean(untraced)
    metrics = {
        "experiment.run_experiment.calls": per_pass(calls["experiment.run_experiment"]),
        "experiment.run_experiment.self_s": per_pass(self_s.get("experiment.run_experiment", 0.0)),
        "experiment.write_csv.s": per_pass(self_s.get("experiment.write_csv", 0.0)),
        "experiment.write_json.s": per_pass(self_s.get("experiment.write_json", 0.0)),
        "experiment.bytes_written": per_pass(counts["experiment.bytes_written"]),
        "analytic.closed_form.calls": per_pass(calls["analytic.closed_form"]),
        "analytic.closed_form.s": per_pass(self_s.get("analytic.closed_form", 0.0)),
        "analytic.quad.calls": per_pass(counts["analytic.quad.calls"]),
        "analytic.quad.neval": per_pass(counts["analytic.quad.neval"]),
        "analytic.oracle.quadrature_errors": per_pass(counts["analytic.oracle.quadrature_errors"]),
        "simulation.run_monte_carlo.calls": per_pass(calls["simulation.run_monte_carlo"]),
        "simulation.run_monte_carlo.s": per_pass(mc_s),
        "simulation.trials_per_s": drawn / mc_s if mc_s else 0.0,
        "simulation.eff_trials_per_s": counts["simulation.eff_trials"] / mc_s if mc_s else 0.0,
        "simulation.trials_drawn": per_pass(drawn),
        "simulation.trials_transmitted": per_pass(counts["simulation.trials_transmitted"]),
        "simulation.useful_ratio": (counts["simulation.trials_transmitted"] / drawn
                                    if drawn else 0.0),
        "simulation.chunks": per_pass(counts["simulation.chunks"]),
        "simulation.pool_starts": per_pass(counts["simulation.pool_starts"]),
        "bench.harness.self_s": per_pass(self_s.get("bench.pass", 0.0)),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    for layer in ("analytic.optimize_powers_sss", "analytic.sep_peak_interference_exact",
                  "analytic.sep_rayleigh_numeric", "analytic.sep_general_numeric",
                  "analytic.sep_peak_interference_oracle"):
        metrics[f"{layer}.calls"] = per_pass(calls[layer])
        metrics[f"{layer}.s"] = per_pass(self_s.get(layer, 0.0))
    return metrics


def write_record(name: str, payload: dict) -> None:
    with open(os.path.join(OUT_ROOT, name), "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        with open(BENCHMARK_JSON, encoding="utf-8") as fh:
            declared = json.load(fh)
    except OSError as exc:
        print(f"perfbench: cannot read {BENCHMARK_JSON}: {exc}", file=sys.stderr)
        return 2
    kind = "per_layer" if args.trace else "end_to_end"
    metric_units = {metric["name"]: metric["unit"] for metric in declared[kind]}

    os.makedirs(OUT_ROOT, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT)
    try:
        driver_cls = OracleDriver if args.workload == "oracle-certify" else SweepDriver
        driver = driver_cls(args.workload, args.seed, outdir)
        report = {}
        if args.trace:
            untraced, tracer, collected = traced_passes(driver, args.seconds)
            values = layer_metrics(tracer, untraced)
            run_start = tracer.spans[0][1]
            write_record(f"trace-{args.workload}-seed{args.seed}.json", {
                "fields": ["name", "start_s", "end_s", "parent", "group"],
                "spans": [[name, start - run_start, end - run_start, parent, group]
                          for name, start, end, parent, group in tracer.spans],
            })
        else:
            calibration = Calibration()
            try:
                setup_walls, setup_units = measure_setup(
                    args.workload, args.seed, outdir, calibration)
                unit = PASS_UNIT[args.workload]
                walls, units, collected = timed_passes(driver, args.seconds, calibration, unit)
            finally:
                calibration.close()
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values = {
                "wall_s": statistics.median(rescaled(walls, units, unit)),
                "setup_s": statistics.median(rescaled(setup_walls, setup_units, SETUP_UNIT)),
                "peak_rss_mb": peak_rss_mb,
            }
            report.update(raw_wall_s=statistics.median(walls), pass_walls_s=walls,
                          calibration_unit=unit, calibration_unit_s=units,
                          setup_walls_s=setup_walls, setup_calibration_unit_s=setup_units)
        attempted, failed, messages = driver.verify(collected, report)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    if set(values) != set(metric_units):
        print(f"perfbench: metrics {sorted(set(values) ^ set(metric_units))} do not match "
              f"the {kind} list of BENCHMARK.json", file=sys.stderr)
        return 2
    run_context = context(args, len(collected))
    for message in messages[:20]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in metric_units.items()},
    }
    write_record(f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json",
                 {"context": run_context, "checks": report, "result": result})
    print(json.dumps({"context": run_context, "checks": report}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
