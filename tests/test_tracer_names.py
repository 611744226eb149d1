"""Every function that perfbench/tracer.py wraps by module and name still
exists, so a deletion or rename breaks this test before it breaks a traced
benchmark run.  The tracer file is only loaded, never changed or installed."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("shellbound_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_spanned_names_resolve_to_callables():
    tracer = _load_tracer()
    assert tracer.SPANNED
    for mod_name, names in tracer.SPANNED.items():
        module = importlib.import_module(f"shellbound.{mod_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"shellbound.{mod_name}.{name}"


def test_other_traced_hooks_resolve():
    # install() also wraps these, and the run report reads the cache counter
    exactpoly = importlib.import_module("shellbound.exactpoly")
    lattice = importlib.import_module("shellbound.lattice")
    assert callable(exactpoly.gegenbauer.cache_info)
    assert callable(exactpoly.Poly.__call__)
    assert callable(lattice.GramLattice.__init__)
