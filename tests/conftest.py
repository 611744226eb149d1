import concurrent.futures
import os
from pathlib import Path

import pytest

import shellbound


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run the slow rank-24 criteria",
    )


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: opt-in rank-24 work (enable with --runslow)")
    config._criterion_lines = []


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def criterion_log(request):
    lines = request.config._criterion_lines

    def log(line: str) -> None:
        lines.append(line)

    return log


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)


@pytest.fixture
def two_cpu_executors(monkeypatch):
    """Pretend two usable CPUs and replace the thread pool with a serial fake
    that records max_workers, so no thread is started."""
    recorded = []

    class SerialExecutor:
        def __init__(self, max_workers=None, **kwargs):
            recorded.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialExecutor)
    return recorded


@pytest.fixture(scope="session", autouse=True)
def package_on_subprocess_path():
    """`python -m shellbound` in a subprocess imports the package under test,
    also when pytest alone put it on sys.path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(Path(shellbound.__file__).parents[1]), prepend=os.pathsep)
        yield
