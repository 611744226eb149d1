"""The package pins OpenBLAS to one thread at import, so the pair kernel's
pool is the only parallelism.  Each check runs in a fresh interpreter, since
the pin only acts when numpy is not yet imported."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
_PROBE = (
    "import os, shellbound; "
    "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"
)


def _import_in_fresh_interpreter(**env):
    base = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, base.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env={**base, **env}, capture_output=True, text=True, check=True
    ).stdout.split()
    return int(out[0]), out[1]


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
    reason="counts threads in /proc/self/task; OpenBLAS starts no workers on one CPU",
)
def test_import_starts_no_blas_threads():
    assert _import_in_fresh_interpreter() == (1, "1")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_exported_thread_count_wins():
    threads, value = _import_in_fresh_interpreter(OPENBLAS_NUM_THREADS="2")
    assert value == "2"
    assert threads <= 2
