"""The package's exception types, in a module that loads no numpy, so the
command line can map them to exit codes before any numpy-backed module is
imported."""

__all__ = ["LatticeError", "InvalidGramError", "LatticeFormatError", "CertificationError"]


class LatticeError(Exception):
    pass


class InvalidGramError(LatticeError):
    """Gram matrix is not a symmetric positive definite integer matrix."""


class LatticeFormatError(LatticeError):
    """Malformed lattice document or unknown builtin name."""


class CertificationError(RuntimeError):
    """An exact result failed its own certificate: a bug, not bad input."""
