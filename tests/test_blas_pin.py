"""The package pins OpenBLAS to one thread at import, so the pair kernel's
pool is the only parallelism.  Each check runs in a fresh interpreter, since
the pin only acts when numpy is not yet imported.  `import shellbound` alone
loads no numpy, so each probe loads numpy through the package: by reading a
numpy-backed name, or by importing a numpy-backed submodule."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
_BY_NAME = "import shellbound; shellbound.pair_distribution"
_BY_SUBMODULE = "import shellbound.lattice"


def _import_in_fresh_interpreter(statement=_BY_NAME, **env):
    base = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, base.get("PYTHONPATH")]))
    probe = (
        f"import os, sys; {statement}; "
        "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**base, **env}, capture_output=True, text=True, check=True
    ).stdout.split()
    assert out[2] == "True", f"{statement!r} did not load numpy"
    return int(out[0]), out[1]


_MANY_CPUS = pytest.mark.skipif(
    not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
    reason="counts threads in /proc/self/task; OpenBLAS starts no workers on one CPU",
)


@_MANY_CPUS
def test_import_starts_no_blas_threads():
    assert _import_in_fresh_interpreter() == (1, "1")


@_MANY_CPUS
def test_submodule_import_starts_no_blas_threads():
    assert _import_in_fresh_interpreter(_BY_SUBMODULE) == (1, "1")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_exported_thread_count_wins():
    threads, value = _import_in_fresh_interpreter(OPENBLAS_NUM_THREADS="2")
    assert value == "2"
    assert threads <= 2
