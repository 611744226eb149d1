"""The package's exception types, in a module that loads no numpy, so the
command line can map them to exit codes before any numpy-backed module is
imported."""


class LatticeError(Exception):
    pass


class InvalidGramError(LatticeError):
    """Gram matrix is not a symmetric positive definite integer matrix."""


class LatticeFormatError(LatticeError):
    """Malformed lattice document or unknown builtin name."""


class PreconditionError(ValueError):
    """An argument outside a function's mathematical domain, or a request past
    a documented size limit."""


class CertificationError(RuntimeError):
    """An exact result failed its own certificate: a bug, not bad input."""
