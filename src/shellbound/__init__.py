"""Exact arithmetic for lattice shells: enumeration, counting bounds,
spherical design strength, integrality root filters, and the complete
classification of shell-count equality.  Each public name loads its home
module on first use, so `import shellbound` loads no numpy."""

import os

# before numpy loads: no OpenBLAS workers under the pair kernel's pool
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import importlib
import sys
import types

from ._version import __version__

# the public surface by home module, and the only list of it: no module
# assigns its own __all__
_HOMES = {
    "exactpoly": ("Poly", "binom", "harmonic_dim", "gegenbauer", "cumulative_gegenbauer",
                  "cumulative_gegenbauer_closed", "fisher_bound", "shell_bound"),
    "errors": ("LatticeError", "InvalidGramError", "LatticeFormatError", "PreconditionError",
               "CertificationError"),
    "lattice": ("GramLattice", "Shell", "builtin", "inner", "enumerate_shell",
                "enumerate_shells", "shell_counts", "shell_count", "brute_force_shell",
                "brute_force_shells", "hermite_normal_form", "span_of", "gram_det", "is_even",
                "lattice_from_document", "lattice_to_document"),
    "design": ("Spectrum", "PairDistribution", "DesignReport", "pair_distribution", "spectrum",
               "moment_sum", "design_strength", "annihilator", "annihilator_identity_holds"),
    "filter": ("FilterReport", "Norm3Contradiction", "root_filter", "filter_search",
               "norm2_filter_dimension", "norm3_filter_contradiction", "circle_exclusion",
               "allowed_tight_strengths"),
    "classify": ("RANK1", "ZN", "E8", "NONE", "EqualityReport", "orthonormal_system",
                 "reflection_closure", "recognize_e8", "classify"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # loading a submodule binds it here: the function classify keeps its name
        if not (name in _HOME and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
