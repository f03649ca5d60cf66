"""Spans and counters recorded from outside the cogsep package.

``instrument`` replaces public functions at the module attributes their
callers look up (``cogsep.experiment.run_monte_carlo``,
``cogsep.analytic.quad``, ...) with timing and counting wrappers, and puts
the originals back when it exits. Nothing under ``src/`` is modified.

Spans stay in memory as ``[name, start, end, parent, group]``; ``parent`` is
the index of the enclosing span (-1 for a root) and ``group`` is shared by
the spans of one preset or oracle point. A layer's self time is its span's
duration minus the durations of its direct children, so the self times of
all spans under a pass add up to the pass's duration.
"""

import contextlib
import itertools
import math
import os
import time
from collections import Counter, defaultdict

from cogsep import analytic, experiment
from cogsep.mathcore import QuadratureError

_Z95 = 1.959963984540054


class Tracer:
    """Records spans and counters; ``enabled=False`` makes it a no-op."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.group = ""
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.group])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, name: str, func, after=None, errors: str | None = None):
        """Wrap ``func`` in a span.

        ``after(args, kwargs, result)`` updates counters after a return;
        ``errors`` names the counter a QuadratureError increments.
        """

        def traced(*args, **kwargs):
            with self.span(name):
                try:
                    result = func(*args, **kwargs)
                except QuadratureError:
                    if errors:
                        self.counts[errors] += 1
                    raise
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def counting_quadrature(self, func):
        """Count calls of a scipy quadrature routine and its integrand evaluations."""
        counts = self.counts

        def counted(integrand, *args, **kwargs):
            counts["analytic.quad.calls"] += 1
            evaluations = itertools.count()

            def counted_integrand(*x):
                next(evaluations)
                return integrand(*x)

            try:
                return func(counted_integrand, *args, **kwargs)
            finally:
                counts["analytic.quad.neval"] += next(evaluations)

        return counted

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus its direct children."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            duration = end - start
            totals[name] += duration
            if parent >= 0:
                totals[self.spans[parent][0]] -= duration
        return dict(totals)

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)


def _count_monte_carlo(counts: Counter):
    def after(args, kwargs, estimate):
        config = args[1]
        workers = kwargs.get("workers", args[2] if len(args) > 2 else 1)
        chunks = math.ceil(config.trials / config.chunk_size)
        counts["simulation.trials_drawn"] += config.trials
        counts["simulation.trials_transmitted"] += estimate.trials
        counts["simulation.chunks"] += chunks
        if workers > 1 and chunks > 1:
            counts["simulation.pool_starts"] += 1
        counts["simulation.eff_trials"] += effective_trials(
            estimate.sep, estimate.ci95_half_width)

    return after


def _count_bytes(counts: Counter):
    def after(args, kwargs, result):
        counts["experiment.bytes_written"] += os.path.getsize(args[1])

    return after


def effective_trials(p: float, half_width: float) -> float:
    """Plain binomial trials giving the same 95% CI half-width at rate p."""
    if half_width <= 0.0:
        return 0.0
    return p * (1.0 - p) * (_Z95 / half_width) ** 2


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    counts = tracer.counts
    closed_form = "analytic.closed_form"
    patches = [
        (experiment, "run_experiment", tracer.wrap(
            "experiment.run_experiment", experiment.run_experiment)),
        (experiment, "write_csv", tracer.wrap(
            "experiment.write_csv", experiment.write_csv, _count_bytes(counts))),
        (experiment, "write_json", tracer.wrap(
            "experiment.write_json", experiment.write_json, _count_bytes(counts))),
        (experiment, "sep_rayleigh", tracer.wrap(closed_form, experiment.sep_rayleigh)),
        (experiment, "sep_upper_bound", tracer.wrap(closed_form, experiment.sep_upper_bound)),
        (experiment, "sep_peak_interference", tracer.wrap(
            closed_form, experiment.sep_peak_interference)),
        (experiment, "optimize_powers_sss", tracer.wrap(
            "analytic.optimize_powers_sss", experiment.optimize_powers_sss)),
        (experiment, "sep_peak_interference_exact", tracer.wrap(
            "analytic.sep_peak_interference_exact", experiment.sep_peak_interference_exact)),
        (experiment, "run_monte_carlo", tracer.wrap(
            "simulation.run_monte_carlo", experiment.run_monte_carlo,
            _count_monte_carlo(counts))),
        (analytic, "quad", tracer.counting_quadrature(analytic.quad)),
        (analytic, "dblquad", tracer.counting_quadrature(analytic.dblquad)),
    ]
    for oracle in ("sep_rayleigh_numeric", "sep_general_numeric",
                   "sep_peak_interference_oracle"):
        patches.append((analytic, oracle, tracer.wrap(
            f"analytic.{oracle}", getattr(analytic, oracle),
            errors="analytic.oracle.quadrature_errors")))

    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    try:
        for module, attr, wrapper in patches:
            setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)
