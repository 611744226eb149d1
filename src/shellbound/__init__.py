"""Exact arithmetic for lattice shells: enumeration, counting bounds,
spherical design strength, integrality root filters, and the complete
classification of shell-count equality."""

import os

# before numpy loads: no OpenBLAS workers under the pair kernel's pool
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from ._version import __version__
from .exactpoly import (
    Poly,
    Rational,
    binom,
    cumulative_gegenbauer,
    cumulative_gegenbauer_closed,
    fisher_bound,
    gegenbauer,
    harmonic_dim,
    shell_bound,
)
from .lattice import (
    GramLattice,
    InvalidGramError,
    LatticeError,
    LatticeFormatError,
    Shell,
    SpanBasis,
    brute_force_shell,
    brute_force_shells,
    builtin,
    enumerate_shell,
    enumerate_shells,
    gram_det,
    hermite_normal_form,
    inner,
    is_even,
    lattice_from_document,
    lattice_to_document,
    shell_count,
    span_of,
)
from .design import (
    DesignReport,
    PairDistribution,
    Spectrum,
    annihilator,
    annihilator_identity_holds,
    antipodal_bound,
    design_strength,
    moment_sum,
    pair_distribution,
    spectrum,
)
from .filter import (
    FilterReport,
    Norm3Contradiction,
    allowed_tight_strengths,
    circle_exclusion,
    filter_search,
    norm2_filter_dimension,
    norm3_filter_contradiction,
    root_filter,
)
from .classify import (
    E8,
    NONE,
    RANK1,
    ZN,
    EqualityReport,
    classify,
    orthonormal_system,
    recognize_e8,
    reflection_closure,
)

__all__ = [
    "__version__",
    # exactpoly
    "Poly", "Rational", "binom", "harmonic_dim", "gegenbauer",
    "cumulative_gegenbauer", "cumulative_gegenbauer_closed",
    "fisher_bound", "shell_bound",
    # lattice
    "GramLattice", "Shell", "SpanBasis",
    "LatticeError", "InvalidGramError", "LatticeFormatError",
    "builtin", "inner", "enumerate_shell", "enumerate_shells", "shell_count",
    "brute_force_shell", "brute_force_shells",
    "hermite_normal_form", "span_of", "gram_det", "is_even",
    "lattice_from_document", "lattice_to_document",
    # design
    "Spectrum", "PairDistribution", "DesignReport",
    "pair_distribution", "spectrum", "moment_sum", "design_strength",
    "antipodal_bound", "annihilator", "annihilator_identity_holds",
    # filter
    "FilterReport", "Norm3Contradiction",
    "root_filter", "filter_search", "norm2_filter_dimension",
    "norm3_filter_contradiction", "circle_exclusion", "allowed_tight_strengths",
    # classify
    "RANK1", "ZN", "E8", "NONE",
    "EqualityReport", "orthonormal_system", "reflection_closure",
    "recognize_e8", "classify",
]
