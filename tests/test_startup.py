"""Start-up pays for numpy only when a request uses it: `import shellbound`,
`bound` and `filter` load neither numpy nor the numpy-backed modules, and
every public name still resolves, on first use, to the object of its home
module.  Each load check runs in a fresh interpreter."""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import shellbound

NUMPY_BACKED = {"numpy", "shellbound.lattice", "shellbound.design", "shellbound.classify"}


def _loaded(*argv):
    """Modules the fresh interpreter `python -X importtime ARGV` imported."""
    result = subprocess.run(
        [sys.executable, "-X", "importtime", *argv], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return {line.rpartition("|")[2].strip() for line in result.stderr.splitlines() if line.startswith("import time:")}


@pytest.mark.parametrize(
    "argv",
    [
        ["-c", "import shellbound"],
        ["-m", "shellbound", "bound", "--n", "8", "--k", "2"],
        ["-m", "shellbound", "filter", "--k", "3", "--n", "10"],
        ["-m", "shellbound", "filter", "--k", "2", "--nmax", "100"],
        ["-c", "from shellbound import CertificationError, PreconditionError"],
    ],
    ids=["import", "bound", "filter-n", "filter-nmax", "errors"],
)
def test_request_loads_no_numpy(argv):
    loaded = _loaded(*argv)
    assert "shellbound" in loaded
    assert loaded & NUMPY_BACKED == set()


@pytest.mark.parametrize(
    "request_args",
    [
        ["classify", "--lattice", "zn:2", "--k", "1"],
        ["shell", "--lattice", "zn:2", "--k", "1"],
        ["bound", "--n", "8", "--k", "2"],
        ["filter", "--k", "2", "--n", "8"],
    ],
    ids=["classify", "shell", "bound", "filter"],
)
def test_request_loads_no_verification_engine(request_args):
    # only verify-paper compiles and runs the acceptance engine
    loaded = _loaded("-m", "shellbound", *request_args)
    assert "shellbound.cli" in loaded
    assert "shellbound.verify" not in loaded


@pytest.mark.parametrize(
    "request_args",
    [
        ["classify", "--lattice", "zn:2", "--k", "1"],
        ["verify-paper", "--criteria", "C01", "--quiet"],
        ["bound", "--n", "8", "--k", "2"],
        ["filter", "--k", "2", "--n", "8"],
    ],
    ids=["classify", "verify-paper", "bound", "filter"],
)
def test_request_builds_no_generated_classes(request_args):
    # reports are named tuples and Shell a slots class: no request needs
    # dataclasses, whose generated methods are compiled at import
    loaded = _loaded("-m", "shellbound", *request_args)
    assert "shellbound.cli" in loaded
    assert loaded & {"dataclasses", "copy"} == set()


def test_bound_compiles_no_filter():
    # filter.py is imported inside the filter handler only
    loaded = _loaded("-m", "shellbound", "bound", "--n", "8", "--k", "2")
    assert "shellbound.exactpoly" in loaded
    assert "shellbound.filter" not in loaded


def test_verify_paper_loads_the_verification_engine():
    # the probe above sees the engine when a request does load it
    assert "shellbound.verify" in _loaded("-m", "shellbound", "verify-paper", "--criteria", "C01", "--quiet")


def test_numpy_backed_request_loads_numpy():
    # the probe above sees numpy when a request does load it
    assert NUMPY_BACKED <= _loaded("-m", "shellbound", "classify", "--lattice", "zn:2", "--k", "1")


def test_names_resolve_to_their_home_objects():
    assert shellbound.__all__[0] == "__version__"
    for name in shellbound.__all__[1:]:
        home = importlib.import_module(f"shellbound.{shellbound._HOME[name]}")
        assert getattr(shellbound, name) is getattr(home, name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from shellbound import *", namespace)
    assert {name: namespace[name] for name in shellbound.__all__} == {
        name: getattr(shellbound, name) for name in shellbound.__all__
    }


def test_classify_stays_the_function_when_its_module_loads_first():
    # loading shellbound.classify binds the module on the package; the
    # public name classify must still be the function
    probe = (
        "import importlib, shellbound; "
        "mod = importlib.import_module('shellbound.classify'); "
        "print(shellbound.classify is mod.classify)"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120)
    assert result.stdout == "True\n", result.stderr[-2000:]


def test_dir_covers_all_and_unknown_names_raise():
    assert set(shellbound.__all__) <= set(dir(shellbound))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        shellbound.no_such_name
    assert not hasattr(shellbound, "product_dtype")  # home-module names stay unexported


def test_every_exception_type_is_exported():
    errors = importlib.import_module("shellbound.errors")
    exceptions = {
        name for name, obj in vars(errors).items() if inspect.isclass(obj) and issubclass(obj, Exception)
    }
    assert exceptions == {
        "LatticeError", "InvalidGramError", "LatticeFormatError", "PreconditionError", "CertificationError"
    }
    assert exceptions <= set(shellbound.__all__)


def test_only_the_package_declares_all():
    # _HOMES is the one list of public names: no module keeps a second one
    assigners = set()
    for path in Path(shellbound.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                assigners.add(path.name)
    assert assigners == {"__init__.py"}
