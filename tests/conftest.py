import concurrent.futures
from concurrent.futures import Future
from types import SimpleNamespace

import pytest

from cogsep import (ConstellationSpec, ConstraintSet, GaussianMixture, Scenario, Scheme,
                    SensingModel)
from cogsep.presets import default_sensing, default_mixture

P_4DB = 10.0 ** 0.4


@pytest.fixture
def pool_log(monkeypatch):
    """Swap the executor ``run_estimates`` makes for an in-process stand-in
    that logs its use.

    ``sizes`` lists the thread count each executor was created with, and
    ``tasks`` the (point, chunk index) of every chunk of each submitted
    task, in submit order. No thread is started, so a large worker count
    is safe to pass; a real pool starts min(workers, tasks) threads.
    """
    log = SimpleNamespace(sizes=[], tasks=[])

    class RecordingExecutor:
        def __init__(self, max_workers):
            log.sizes.append(max_workers)

        def submit(self, fn, scenario, config, chunks):
            log.tasks.append([(config.point, index) for index in chunks])
            future = Future()
            future.set_result(fn(scenario, config, chunks))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    # ``run_estimates`` imports the executor from here when it makes a pool
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingExecutor)
    return log


@pytest.fixture
def mixture():
    return default_mixture()


@pytest.fixture
def gaussian_mix():
    """Single Gaussian with the mixture preset's total per-axis variance 0.5."""
    return GaussianMixture.from_lists([1.0], [0.5])


@pytest.fixture
def sensing():
    return default_sensing()


def make_scenario(scheme=Scheme.SSS, modulation=(2, 2), p0=P_4DB, p1=None,
                  sensing=None, noise_variance=0.01, mixture=None,
                  constraints=None, power_policy="fixed"):
    """Assemble a scenario around the default operating point."""
    sensing = sensing or default_sensing()
    mixture = mixture or default_mixture()
    mi, mq = modulation
    spec_idle = ConstellationSpec(mi, mq, p0)
    spec_busy = None
    if scheme is Scheme.SSS:
        spec_busy = ConstellationSpec(mi, mq, p0 if p1 is None else p1)
    return Scenario(
        scheme=scheme,
        spec_idle=spec_idle,
        spec_busy=spec_busy,
        sensing=sensing,
        noise_variance=noise_variance,
        interference=mixture,
        constraints=constraints or ConstraintSet(peak_power=P_4DB,
                                                 avg_interference=0.1),
        power_policy=power_policy,
    )
