"""Exact inner-product spectra, pair distributions, spherical design strength,
and the annihilator polynomial identity for lattice shells.

Normalized shell points are never materialized: every formula runs on the
integers <y,z>, which key the pair counts, over the one denominator k.  They
come from one matrix product in the arithmetic that lattice.product_dtype
proves exact (float32/64, int64 or Python ints), as lattice.gram_products does.
"""

from __future__ import annotations

import os
from collections import Counter
from fractions import Fraction
from typing import Dict, NamedTuple, Optional

import numpy as np

from .errors import CertificationError, PreconditionError
from .exactpoly import (
    Poly,
    cumulative_gegenbauer,
    fisher_bound,
    gegenbauer,
    shell_bound,
)
from .lattice import Shell, product_dtype

_TILE = 512  # rows and columns of one product tile


class Spectrum(NamedTuple):
    """Sorted set of normalized inner products over distinct shell points."""

    k: int
    values: tuple


class PairDistribution(NamedTuple):
    """Counts of ordered distinct pairs of the norm-k shell of a rank-n
    lattice, keyed by the integer inner product <y,z> in [-k, k): the
    normalized inner product is <y,z>/k, and -k is the antipode."""

    k: int
    n: int
    size: int
    counts: Dict[int, int]


class DesignReport(NamedTuple):
    strength: int
    tight: bool
    fisher_bound: int
    count: int
    capped: bool


def worker_count() -> int:
    """The CPUs this process may run on (os.sched_getaffinity, else
    os.cpu_count; taskset caps them): the size of the pair kernel's thread
    pool, the only pool.  The package pins OpenBLAS to one thread, so no BLAS
    threads nest under it (see shellbound/__init__.py)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def pair_distribution(S: Shell) -> PairDistribution:
    """Exact ordered-pair counts per integer inner product <y,z>.

    Works on antipodal representatives: for j != -k the full count is twice
    the representative count at j plus twice the count at -j, and the count
    at -k is the shell size (each point meets its antipode once).

    Threads, one per usable CPU (worker_count), walk row strips of _TILE x
    _TILE tiles over the upper triangle: a diagonal tile counts once, any
    other twice, as <v,w> = <w,v>.

    Raises PreconditionError (bad input) when the shell is empty; Shell itself
    guarantees distinct +-pairs of norm k.
    """
    N = len(S.vectors)
    if N == 0:
        raise PreconditionError("pair_distribution needs a nonempty shell")
    k = S.k
    gram = S.lattice.gram
    # the upper half of the sorted antipodal rows holds one vector per pair
    V = S.vectors[N // 2 :]
    m = V.shape[0]

    # cast once and form W = V G once; each tile is then one product V_a W_c^T
    dtype = product_dtype(int(np.abs(V).max()), gram)
    V = V.astype(dtype)
    W = V @ np.array(gram, dtype=dtype)

    def count_strip(a):
        raw = Counter()
        for c in range(a, m, _TILE):
            # the products lie in [-k, k]; 2k+1 bincount bins cost time and
            # memory in k, so bincount only runs while the tile is at least as
            # large, and the values that occur are sorted out otherwise
            P = (V[a : a + _TILE] @ W[c : c + _TILE].T).ravel()
            if 2 * k + 1 <= P.size:
                cnt = np.bincount(P.astype(np.int64) + k, minlength=2 * k + 1)
                keys = np.flatnonzero(cnt)
                keys, cnts = keys - k, cnt[keys]
            else:
                keys, cnts = np.unique(P, return_counts=True)
            for p, n in zip(keys.tolist(), cnts.tolist()):
                raw[int(p)] += n if c == a else 2 * n
        return raw

    starts = range(0, m, _TILE)
    workers = worker_count()
    if workers > 1 and len(starts) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            tallies = list(pool.map(count_strip, starts))
    else:
        tallies = [count_strip(a) for a in starts]
    raw = sum(tallies, Counter())

    diagonal = raw.pop(k, 0)  # <v,v> = k once per representative
    if diagonal != m:
        raise CertificationError("distinct representatives cannot be collinear")
    if -k in raw:
        raise CertificationError("representatives contain an antipodal pair")
    counts = {-k: N}
    for p in sorted(set(raw) | {-p for p in raw}):
        counts[p] = 2 * (raw.get(p, 0) + raw.get(-p, 0))
    if sum(counts.values()) != N * (N - 1):
        raise CertificationError(f"pair counts do not sum to {N}*{N - 1}")
    return PairDistribution(k=k, n=S.lattice.n, size=N, counts=counts)


def spectrum(dist: PairDistribution) -> Spectrum:
    """Set of normalized inner products <y,z>/k over distinct shell vectors."""
    k = dist.k
    for j in dist.counts:
        if not -k <= j < k:
            raise CertificationError(f"inner product {j} lies outside [-{k}, {k})")
    return Spectrum(k=k, values=tuple(Fraction(j, k) for j in sorted(dist.counts)))


def moment_sum(dist: PairDistribution, i: int) -> Fraction:
    """Gegenbauer kernel sum over all ordered shell pairs, diagonal included.

    Always non-negative; zero exactly when the degree-i harmonic moments of
    the normalized shell vanish.
    """
    if dist.n < 2:
        raise PreconditionError("design strength is defined on the sphere, need n >= 2")
    if i < 1:
        raise PreconditionError("degree must be >= 1")
    # the diagonal <y,y> = k joins the distinct pairs
    return gegenbauer(dist.n, i).sum_at({**dist.counts, dist.k: dist.size}, dist.k)


def design_strength(dist: PairDistribution, t_max: Optional[int] = None) -> DesignReport:
    """Largest t <= t_max (default 4k+3) with vanishing harmonic moments up to
    degree t.

    capped means every degree up to t_max passed, so the true strength is
    reported as at least t_max rather than exactly.
    """
    if t_max is None:
        t_max = 4 * dist.k + 3
    if t_max < 1:
        raise PreconditionError("t_max must be >= 1")
    strength = 0
    for i in range(1, t_max + 1):
        if moment_sum(dist, i) == 0:
            strength = i
        else:
            break
    fisher = fisher_bound(dist.n, strength)
    return DesignReport(
        strength=strength,
        tight=(dist.size == fisher),
        fisher_bound=fisher,
        count=dist.size,
        capped=strength == t_max,
    )


def annihilator(sp: Spectrum) -> Poly:
    """Product of (u - a)/(1 - a) over the spectrum; value 1 at u = 1."""
    if any(a == 1 for a in sp.values):
        raise PreconditionError("annihilator undefined when 1 is an inner product value")
    p = Poly((1,))
    for a in sp.values:
        p = p * Poly((-a, 1)) * Fraction(1, 1 - Fraction(a))
    return p


def annihilator_identity_holds(n: int, sp: Spectrum) -> bool:
    """Exact polynomial identity test: the shell bound times the annihilator
    of a rank-n norm-k shell's spectrum sp equals (1+u) times the odd
    cumulative Gegenbauer sum of degree 2k-1."""
    lhs = shell_bound(n, sp.k) * annihilator(sp)
    rhs = Poly((1, 1)) * cumulative_gegenbauer(n, 2 * sp.k - 1)
    return lhs == rhs
