"""Benchmark-suite configuration.

Each experiment bench runs its experiment once (``rounds=1``) under
pytest-benchmark timing, asserts the paper's qualitative claim held, and
prints the paper-style table (visible with ``pytest -s`` or on failure).
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--exp-full",
        action="store_true",
        default=False,
        help="run experiments at report-quality horizons (slow)",
    )
    parser.addoption(
        "--perf-smoke",
        action="store_true",
        default=False,
        help="exercise every benchmark's code path but skip the wall-clock "
             "assertions (shared CI runners have unpredictable timing; this "
             "keeps benchmark code from rotting without flaky failures)",
    )


@pytest.fixture
def exp_fast(request):
    return not request.config.getoption("--exp-full")


@pytest.fixture
def perf_asserts(request):
    """False under --perf-smoke: measure and report, but don't gate."""
    return not request.config.getoption("--perf-smoke")


@pytest.fixture
def timed_mean(benchmark):
    """Mean seconds per round of the bench's ``benchmark.pedantic`` run, or
    ``None`` when pytest-benchmark's timing is off (``--benchmark-disable``
    leaves ``benchmark.stats`` at ``None``).

    The one way a bench reads its timed side.  Benches run every equality
    assert first, then read the time; on ``None`` they skip the ratio, its
    record and the floor.
    """
    def mean():
        stats = benchmark.stats
        return None if stats is None else stats["mean"]

    return mean
