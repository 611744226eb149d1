"""Integer Gram-matrix lattices: builtin catalog, exact shell enumeration, and
integer span computations.

A shell is a read-only integer array with one vector per row (coordinates in
the lattice basis), rows sorted lexicographically.  Enumeration prunes with
exact integer bounds from a fraction-free elimination of the Gram matrix, so
it is complete in any basis and takes no floating-point shortcut.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import sys
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import CertificationError, InvalidGramError, LatticeFormatError, PreconditionError


def _elimination(rows):
    """Fraction-free (Bareiss) elimination of a symmetric integer matrix, or
    None when it is not positive definite (some pivot D_t <= 0).  Row t holds
    from column t on the entries after t steps: a[t][t] = D_t is the leading
    minor of order t+1, and a[-1][-1] the determinant.  Rows are tuples."""
    a = [[int(x) for x in row] for row in rows]
    n = len(a)
    prev = 1
    for t in range(n):
        piv = a[t][t]
        if piv <= 0:
            return None
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                a[i][j] = (a[i][j] * piv - a[i][t] * a[t][j]) // prev
        prev = piv
    return tuple(map(tuple, a))


class GramLattice:
    """An integral lattice given by its integer Gram matrix.

    Construction validates that the matrix is square, integer, symmetric, and
    positive definite (all leading principal minors positive, checked exactly
    by the fraction-free elimination it keeps for the search and the oracle).
    """

    __slots__ = ("n", "gram", "name", "elimination")

    def __init__(self, gram, name: Optional[str] = None):
        rows = tuple(tuple(x for x in row) for row in gram)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise InvalidGramError("gram matrix must be square and non-empty")
        try:  # operator.index reads numpy integers as ints; it refuses floats and np.True_
            if any(isinstance(x, bool) for row in rows for x in row):
                raise TypeError
            rows = tuple(tuple(map(operator.index, row)) for row in rows)
        except TypeError:
            raise InvalidGramError("gram entries must be integers") from None
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise InvalidGramError("gram matrix must be symmetric")
        self.elimination = _elimination(rows)
        if self.elimination is None:
            raise InvalidGramError("gram matrix must be positive definite")
        self.n = n
        self.gram = rows
        self.name = name

    def __eq__(self, other):
        return (
            isinstance(other, GramLattice)
            and self.gram == other.gram
            and self.name == other.name
        )

    def __hash__(self):
        return hash((self.gram, self.name))

    def __repr__(self):
        label = self.name or f"{self.n}d"
        return f"GramLattice({label}, n={self.n})"


class Shell:
    """All lattice vectors of squared norm k: the rows of a read-only int64
    array (Python ints, object, when a coordinate exceeds int64).

    Canonical by construction: the shell keeps its own copy of the rows,
    sorted lexicographically, and raises PreconditionError unless k is a
    positive int, the rows are signed integers (or Python ints in an object
    array) with one column per basis vector of the lattice, and they are
    distinct +-pairs of squared norm k, so row count-1-i is the negation of
    row i.  Its attributes cannot be rebound, and shells compare by identity."""

    __slots__ = ("k", "vectors", "lattice")

    def __init__(self, k: int, vectors: np.ndarray, lattice: GramLattice):
        _check_norms(k)
        V = vectors
        if not isinstance(V, np.ndarray) or V.ndim != 2 or V.shape[1] != lattice.n:
            raise PreconditionError(f"shell vectors must be a 2-D numpy array of {lattice.n} columns")
        if V.dtype == object and set(map(type, V.ravel())) <= {int}:
            # the one dtype rule: int64 while every coordinate fits
            V = V.astype(np.int64) if np.abs(V).max(initial=0) < 2**63 else V
        elif V.dtype.kind == "i":
            V = V.astype(np.int64, copy=False)
        else:
            raise PreconditionError(f"shell vectors must be integers, not {V.dtype}")
        V = sort_rows(V)  # a fresh array, never the caller's
        N = len(V)
        # row N-1-i is minus row i: the reversed upper half cancels the lower half
        if N % 2 or (V[: N // 2] + V[N // 2 :][::-1]).any() or (V[1:] == V[:-1]).all(axis=1).any():
            raise PreconditionError(f"shell rows must be distinct +-pairs ({N} rows)")
        # one row of each +-pair carries the norm of both
        if not (gram_products(V[N // 2 :], lattice.gram) == k).all():
            raise PreconditionError(f"shell rows must have squared norm {k}")
        # the checks above hold for the shell's life only while nobody writes into its rows
        V.flags.writeable = False
        for name, value in (("k", k), ("vectors", V), ("lattice", lattice)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set Shell.{name}: a shell is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete Shell.{name}: a shell is read-only")

    def __reduce__(self):  # copies and pickles rebuild through the checks
        return Shell, (self.k, self.vectors, self.lattice)

    def __len__(self):
        return len(self.vectors)


class SpanBasis(NamedTuple):
    """Hermite normal form basis of an integer span, with its Gram matrix."""

    rank: int
    basis: tuple
    gram: tuple


# ---------------------------------------------------------------------------
# builtin catalog

def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _cartan(n, edges):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
    for i, j in edges:
        g[i][j] = g[j][i] = -1
    return g


def _an_gram(n):
    return _cartan(n, [(i, i + 1) for i in range(n - 1)])


def _dn_gram(n):
    # chain on nodes 0..n-2 plus node n-1 attached to node n-3
    edges = [(i, i + 1) for i in range(n - 2)]
    if n >= 3:
        edges.append((n - 3, n - 1))
    return _cartan(n, edges)


_E8_EDGES = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)]

# Even unimodular rank-24 Gram with minimal norm 4, derived offline from the
# binary Golay code construction and basis-reduced so every basis vector is
# minimal.  Tests assert every required property instead of trusting this
# constant.  One string of 24 rows, parsed on lookup, compiles faster than
# a 576-int literal, which every numpy-backed request would pay for.
_LEECH_GRAM = """
 4 -2 -1 -2 -1 -2 -2 -2 -1 -2 -2 -2  0 -2 -2 -2  1 -2 -2 -2  1 -2 -1  0
-2  4 -1  1 -1  2  2  0 -1  0  1  2 -1  2  0  2 -2  2  0  2 -2  2 -1  1
-1 -1  4 -1  2  0  0  1  2  0 -1  1 -1  1  0 -1 -1 -1  1  0 -1  1  0 -2
-2  1 -1  4 -1  2  1  0 -1  2  2  1  0  1  1  2  0  1  2  2  0  1  0  1
-1 -1  2 -1  4 -1  1  1  2  0 -1  1  1 -1  1 -1  1  0  1 -1 -1  0  2 -2
-2  2  0  2 -1  4  2  1 -1  2  2  1  0  1  0  1 -2  2  0  1  0  2  0  0
-2  2  0  1  1  2  4  0 -1  1  1  1  1  1  1  0 -1  1  1  0 -1  1  1 -1
-2  0  1  0  1  1  0  4  1  1  2  1  1  0  2  0  0  1  0  1  1  0  2 -1
-1 -1  2 -1  2 -1 -1  1  4  1 -1  0 -1  0  1  0  1  0  0  0  0  0  1  0
-2  0  0  2  0  2  1  1  1  4  2  0  1  0  1  1  0  1  1  0  1  1  1  1
-2  1 -1  2 -1  2  1  2 -1  2  4  0  1  1  1  1  0  1  1  1  1  0  1  0
-2  2  1  1  1  1  1  1  0  0  0  4 -1  1  0  1 -1  1  1  2 -2  2  0  0
 0 -1 -1  0  1  0  1  1 -1  1  1 -1  4 -2  1 -1  1  0  0 -2  1 -1  2 -1
-2  2  1  1 -1  1  1  0  0  0  1  1 -2  4  0  1 -2  0  1  2 -1  1 -1  0
-2  0  0  1  1  0  1  2  1  1  1  0  1  0  4  1  1  1  1  1  1  0  2  0
-2  2 -1  2 -1  1  0  0  0  1  1  1 -1  1  1  4 -1  2  1  2 -1  2 -1  2
 1 -2 -1  0  1 -2 -1  0  1  0  0 -1  1 -2  1 -1  4 -1  0 -1  1 -2  2  0
-2  2 -1  1  0  2  1  1  0  1  1  1  0  0  1  2 -1  4  0  1  0  2  0  1
-2  0  1  2  1  0  1  0  0  1  1  1  0  1  1  1  0  0  4  1 -1  1  0  0
-2  2  0  2 -1  1  0  1  0  0  1  2 -2  2  1  2 -1  1  1  4 -1  1 -1  1
 1 -2 -1  0 -1  0 -1  1  0  1  1 -2  1 -1  1 -1  1  0 -1 -1  4 -2  1  0
-2  2  1  1  0  2  1  0  0  1  0  2 -1  1  0  2 -2  2  1  1 -2  4 -1  1
-1 -1  0  0  2  0  1  2  1  1  1  0  2 -1  2 -1  2  0  0 -1  1 -1  4 -1
 0  1 -2  1 -2  0 -1 -1  0  1  0  0 -1  0  0  2  0  1  0  1  0  1 -1  4
"""


def _parse_param(name: str, param: str, least: int) -> int:
    try:
        value = int(param)
    except ValueError:
        raise LatticeFormatError(f"bad parameter in builtin name '{name}'") from None
    if value < least:
        raise LatticeFormatError(f"parameter in '{name}' must be >= {least}")
    return value


@functools.lru_cache(maxsize=64)
def builtin(name: str) -> GramLattice:
    """Look up a builtin lattice: zn:<n>, an:<n>, dn:<n>, e8, leech, scaledz:<q>.

    scaledz:<q> is the rank-1 lattice whose generator has squared norm q.
    Lattices are cached per name (the 64 most recent), so repeated lookups
    share one validated object; unknown names raise on every call.
    """
    if name == "e8":
        return GramLattice(_cartan(8, _E8_EDGES), name="e8")
    if name == "leech":
        return GramLattice([map(int, row.split()) for row in _LEECH_GRAM.strip().splitlines()], name="leech")
    family, sep, param = name.partition(":")
    if not sep:
        raise LatticeFormatError(f"unknown builtin lattice '{name}'")
    if family == "zn":
        n = _parse_param(name, param, 1)
        return GramLattice(_identity(n), name=name)
    if family == "an":
        n = _parse_param(name, param, 1)
        return GramLattice(_an_gram(n), name=name)
    if family == "dn":
        n = _parse_param(name, param, 2)
        return GramLattice(_dn_gram(n), name=name)
    if family == "scaledz":
        q = _parse_param(name, param, 1)
        return GramLattice([[q]], name=name)
    raise LatticeFormatError(f"unknown builtin lattice '{name}'")


# ---------------------------------------------------------------------------
# inner products: the scalar reference and the one exact batched product

def _integers(row) -> list:
    """row as a list of Python ints: operator.index takes Python and numpy
    integers and refuses what int() would truncate (1.5, np.float64(2.0))."""
    try:
        return [operator.index(x) for x in row]
    except TypeError:
        raise PreconditionError("vector entries must be integers") from None


def inner(L: GramLattice, v: Sequence[int], w: Sequence[int]) -> int:
    """Exact inner product v^T G w in the lattice's bilinear form."""
    if len(v) != L.n or len(w) != L.n:
        raise PreconditionError("vector length does not match lattice dimension")
    v, w = _integers(v), _integers(w)
    g = L.gram
    total = 0
    for i, vi in enumerate(v):
        if vi:
            row = g[i]
            total += vi * sum(row[j] * w[j] for j in range(L.n) if w[j])
    return total


def product_dtype(vmax: int, gram) -> type:
    """The dtype in which v^T G w is exact for integer vectors whose entries
    are at most vmax in absolute value.

    Every partial sum of v^T G w, in any order, is an integer of magnitude at
    most bound = (n*vmax)**2 * max|G|: exact in float32 while bound < 2**24
    and in float64 while bound < 2**52; int64 below 2**62; object above.
    """
    bound = _product_bound(vmax, gram)
    return np.float32 if bound < 2**24 else np.float64 if bound < 2**52 else _int_dtype(bound)


def _product_bound(vmax: int, gram) -> int:
    """(n*vmax)**2 * max|G|: a bound on every partial sum of v^T G w."""
    return (len(gram) * vmax) ** 2 * max(abs(x) for row in gram for x in row)


def _int_dtype(bound: int) -> type:
    """int64 when bound, a limit on every magnitude, is below 2**62, else object."""
    return np.int64 if bound < 2**62 else object


def _int_rows(A) -> np.ndarray:
    # a list of Python ints may hold values beyond int64, which numpy would
    # silently turn into floats; object keeps them exact
    return A if isinstance(A, np.ndarray) else np.array(A, dtype=object)


def gram_products(A, gram, B=None) -> np.ndarray:
    """Exact integers a_i^T G b_j for integer rows a_i of A and b_j of B, or
    the squared norms a_i^T G a_i when B is None.

    The result is an int64 array, or an object array of Python ints when the
    values may not fit in int64 (see product_dtype).
    """
    A = _int_rows(A)
    Bm = A if B is None else _int_rows(B)
    vmax = max((int(np.abs(M).max()) for M in (A, Bm) if M.size), default=0)
    dtype = product_dtype(vmax, gram)
    Ad = A.astype(dtype)
    W = Ad @ np.array(gram, dtype=dtype)
    P = np.einsum("ij,ij->i", W, Ad) if B is None else W @ Bm.astype(dtype).T
    # float products are exact integers here, so the cast truncates nothing
    return P if dtype is object else P.astype(np.int64)


# ---------------------------------------------------------------------------
# shell enumeration
#
# Fincke-Pohst search in exact integers.  With D_t the leading minor of order
# t+1 (D_{-1} = 1), a_t row t of the fraction-free elimination of G and
# b_t = a_t[t+1:] . y[t+1:], the norm is sum_t (D_t y_t + b_t)**2 / (D_{t-1} D_t).
# So with P = D_t times the norm of the levels above t, the admissible y_t
# satisfy (D_t y_t + b_t)**2 <= D_{t-1} (k D_t - P), and the next level's P is
# (D_{t-1} P + (D_t y_t + b_t)**2) / D_t exactly, the norm itself after t = 0.
# The tree at bound k holds every norm <= k: for kmin < k the t = 0 level walks
# its interval like any other and keeps the norms >= kmin; for kmin == k it
# solves for norm k, where k D_0 - P is a square.  No bound is rounded, so the
# search is complete in any basis; a pairwise reduction first shortens skewed
# ones.  Frontiers are numpy arrays of at most _CHUNK_ROWS rows: a parent's
# children come in pieces of that size, walked depth first, so the search
# holds at most one frontier and one piece per level and yields its result in
# chunks.  A stored coordinate, the root-solved y_0 too, is admissible (some
# real x with x_j = y_j, j >= t, has norm <= k), so |y_j| <= ymax by Hadamard
# (below): coordinates and chunks take the narrowest signed type holding ymax,
# else the arithmetic dtype of b, P and the roots, at most _CHUNK_ROWS x n x
# that width bytes per level.  Antipodal halving keeps one vector per +-pair
# (the highest-index nonzero coordinate is positive); every vector is produced
# once, so a count needs no sort; the Shell's sort makes the order canonical.

_CHUNK_ROWS = 4096


def _isqrt(v: np.ndarray) -> np.ndarray:
    """Elementwise math.isqrt of a nonnegative integer array."""
    if v.dtype == object:
        return np.frompyfunc(math.isqrt, 1, 1)(v)
    # below 2**62 the float64 root is within 1 of the integer root
    s = np.sqrt(v.astype(np.float64)).astype(np.int64)
    s -= s * s > v
    s += (s + 1) * (s + 1) <= v
    return s


def _children(y, P, z, b, lo, hi, t, D):
    """The child frontiers (y, P, z, t - 1) of level t's frontier y, whose
    row i takes each integer in [lo_i, hi_i] in column t, in pieces of at
    most _CHUNK_ROWS rows; b and D as in _search."""
    if max(np.abs(lo).max(), np.abs(hi).max()) >= 2**53:
        # a size guard, which also keeps every coordinate inside int64
        raise PreconditionError("shell coordinates reach 2**53, too large to enumerate")
    cnt = (hi - lo + 1).astype(np.int64)
    np.maximum(cnt, 0, out=cnt)
    end = np.cumsum(cnt)
    start = end - cnt
    total = int(end[-1])
    for s in range(0, total, _CHUNK_ROWS):
        e = min(s + _CHUNK_ROWS, total)
        # the rows whose children meet [s, e), each repeated once per child in it
        r0, r1 = np.searchsorted(end, s, "right"), np.searchsorted(end, e, "left") + 1
        idx = np.repeat(np.arange(r0, r1), np.minimum(end[r0:r1], e) - np.maximum(start[r0:r1], s))
        vals = lo[idx] + (np.arange(s, e) - start[idx]).astype(lo.dtype, copy=False)
        newy = y[idx]
        newy[:, t] = vals
        c = D[t + 1] * vals + b[idx]
        yield newy, (D[t] * P[idx] + c * c) // D[t + 1], z[idx] & (vals == 0), t - 1


def _search(L: GramLattice, kmin: int, k: int):
    """(rows, norms) chunks of at most _CHUNK_ROWS rows: together one row per
    +-pair of the integer vectors y with kmin <= y^T G y <= k, G = L.gram;
    rows in the narrowest dtype holding ymax, norms in the arithmetic's."""
    gram, a, n = L.gram, L.elimination, L.n
    D = [1] + [a[t][t] for t in range(n)]  # D[t + 1] is D_t
    # Every intermediate is at most k*D_{t-1}*D_t + max|b_t|, and Hadamard's
    # inequality gives |y_j|**2 <= k * (G^-1)_jj <= k * prod(G_ii) / det G.
    ymax = math.isqrt(k * math.prod(gram[i][i] for i in range(n)) // D[n])
    bmax = ymax * max(sum(abs(x) for x in a[t][t + 1 :]) for t in range(n))
    dtype = _int_dtype(max(bmax, max(k * D[t] * D[t + 1] for t in range(n))))
    A = np.array([[a[t][j] if j > t else 0 for j in range(n)] for t in range(n)], dtype=dtype)
    ydtype = next((w for w in (np.int8, np.int16, np.int32) if ymax <= np.iinfo(w).max), dtype)

    # depth first: one iterator of (y, P, z, t) frontiers per level in progress
    stack = [iter([(np.zeros((1, n), dtype=ydtype), np.zeros(1, dtype=dtype), np.ones(1, dtype=bool), n - 1)])]
    while stack:
        frontier = next(stack[-1], None)
        if frontier is None:
            stack.pop()
            continue
        y, P, z, t = frontier
        b = y @ A[t]
        rhs = D[t] * (k * D[t + 1] - P)
        r = _isqrt(rhs)
        if t == 0 and kmin == k:
            # norm exactly k: D_0 y_0 + b = +-r with r**2 = rhs; the root -r is
            # skipped where it repeats +r and where y_0 must be positive
            hit = r * r == rhs
            for root, keep in ((r, hit), (-r, hit & (r > 0) & ~z)):
                num = root - b
                keep = keep & (num % D[1] == 0)
                if keep.any():
                    done = y[keep]
                    done[:, 0] = num[keep] // D[1]
                    yield done, np.full(len(done), k, dtype=dtype)
            continue
        lo = -((r + b) // D[t + 1])
        children = _children(y, P, z, b, np.where(z, np.maximum(lo, 0), lo), (r - b) // D[t + 1], t, D)
        if t == 0:
            for newy, newP, _, _ in children:
                keep = newP >= kmin
                if keep.any():
                    yield newy[keep], newP[keep]
        else:
            stack.append(children)


def _pair_reduce(L: GramLattice):
    """(R, U): R = GramLattice(U^T G U) for U unimodular, with 2|R_ij| <= R_jj:
    no basis vector gets shorter by subtracting a multiple of another; or
    (L, None) when L's basis already is.  Each step b_i -= round(G_ij / G_jj) b_j
    lowers G_ii, so the loop ends."""
    G = [list(row) for row in L.gram]
    n = L.n
    U = _identity(n)
    passes, reduced = 0, False
    while not reduced:
        passes, reduced = passes + 1, True
        for i, j in itertools.permutations(range(n), 2):
            if 2 * abs(G[i][j]) > G[j][j]:
                q = (2 * G[i][j] + G[j][j]) // (2 * G[j][j])
                for m in range(n):  # row i, then column i, of E^T G E
                    G[i][m] -= q * G[j][m]
                    U[m][i] -= q * U[m][j]
                for m in range(n):
                    G[m][i] -= q * G[m][j]
                reduced = False
    # a first pass with no step leaves L as given
    return (L, None) if passes == 1 else (GramLattice(G), U)


def sort_rows(V: np.ndarray) -> np.ndarray:
    """The rows of V in lexicographic order, the canonical order of a shell.

    Needs distinct rows to be canonical; unlike np.unique it removes none.
    """
    return V[np.lexsort(V.T[::-1])]


def _check_norms(*norms) -> None:
    if any(isinstance(k, bool) or not isinstance(k, int) or k < 1 for k in norms):
        raise PreconditionError("k must be a positive integer")


def _checked_search(L: GramLattice, kmin: int, kmax: int):
    """The (rows, norms) chunks of one exact search in a pairwise reduced
    basis, each mapped back to L's basis and norm-checked there exactly."""
    _check_norms(kmin, kmax)
    R, U = _pair_reduce(L)
    for rows, norms in _search(R, kmin, kmax):
        if U is not None:
            # x = U y by the one exact product: x_j = y^T (U^T) e_j
            rows = gram_products(rows, [list(col) for col in zip(*U)], np.eye(L.n, dtype=np.int64))
        if not (gram_products(rows, L.gram) == norms).all():
            raise CertificationError(f"a vector of the norm-{kmin}..{kmax} search fails the exact norm check")
        yield rows, norms


def enumerate_shells(L: GramLattice, kmax: int, kmin: int = 1) -> dict:
    """{k: Shell} of all lattice vectors of squared norm k, for every k from
    kmin to kmax, from one checked search."""
    reps, norms = [np.empty((0, L.n), dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for rows, nrm in _checked_search(L, kmin, kmax):
        reps.append(rows)
        norms.append(nrm)
    reps, norms = np.concatenate(reps), np.concatenate(norms)
    if kmin == kmax:  # no mask, so no copy of a large single shell
        reps = np.concatenate([reps, -reps])  # rebound, so the half is freed before Shell sorts and checks
        return {kmax: Shell(kmax, reps, L)}
    return {k: Shell(k, np.concatenate([reps[norms == k], -reps[norms == k]]), L) for k in range(kmin, kmax + 1)}


def enumerate_shell(L: GramLattice, k: int) -> Shell:
    """All lattice vectors of squared norm exactly k, sorted lexicographically."""
    return enumerate_shells(L, k, kmin=k)[k]


def shell_counts(L: GramLattice, kmax: int, kmin: int = 1) -> dict:
    """{k: number of lattice vectors of squared norm k} for kmin <= k <= kmax,
    from the checked search of enumerate_shells with no shell built: each
    chunk is counted twice (the search emits one vector per +-pair, each
    once, so nothing is sorted) and dropped."""
    _check_norms(kmin, kmax)  # the search is lazy: check before sizing the tally
    tally = np.zeros(kmax - kmin + 1, dtype=np.int64)
    for _, norms in _checked_search(L, kmin, kmax):
        tally += np.bincount((norms - kmin).astype(np.intp), minlength=len(tally))
    return {k: 2 * c for k, c in enumerate(tally.tolist(), kmin)}


def shell_count(L: GramLattice, k: int) -> int:
    """Number of lattice vectors of squared norm exactly k."""
    return shell_counts(L, k, k)[k]


# ---------------------------------------------------------------------------
# independent brute-force oracle
#
# Scans the integer box |x_i| <= b_i = isqrt(kmax * cof_ii // det G), where
# cof_ii / det G = (G^-1)_ii comes from exact principal minors: Cauchy-Schwarz
# in the form G gives x_i**2 <= (x^T G x) (G^-1)_ii, so the norm-kmax box holds
# every vector of norm <= kmax, and one scan buckets its hits by exact norm.
# The scan fixes the shortest prefix p of leading coordinates (none when the
# whole box fits) that leaves a grid of tails t of at most _CHUNK_ROWS rows,
# builds that grid once and forms q_t = t^T G_tt t once, column by column,
# and keeps the tails with kmin <= p^T G_pp p + q_t + t . (2 G_tp p) <= kmax,
# all in int64; only hits become full rows.  Shares only the exact
# elimination (and the row bound) with the search above; intended for
# cross-checking it when n is small.


def _box_bounds(L: GramLattice, k: int) -> list:
    """b_i, per coordinate i, with |x_i| <= b_i on the shells of norm <= k."""
    det = L.elimination[-1][-1]
    bounds = []
    for i in range(L.n):
        # the principal minor without row and column i (1 for rank 1)
        rest = [row[:i] + row[i + 1 :] for row in L.gram[:i] + L.gram[i + 1 :]]
        cof = _elimination(rest)[-1][-1] if rest else 1
        bounds.append(math.isqrt(k * cof // det))
    return bounds


def brute_force_shells(L: GramLattice, kmax: int, kmin: int = 1) -> dict:
    """{k: Shell} for kmin <= k <= kmax by one exhaustive scan of the norm-kmax
    box; exponential in dimension."""
    _check_norms(kmin, kmax)
    n = L.n
    bounds = _box_bounds(L, kmax)
    if _product_bound(max(bounds), L.gram) >= 2**52:
        # the bound that keeps every partial sum of the scan below 2**52
        raise PreconditionError("oracle box too large for an exact float64 scan")
    G = np.array(L.gram, dtype=np.int64)
    ranges = [np.arange(-b, b + 1, dtype=np.int64) for b in bounds]

    lead = 0
    while math.prod(len(r) for r in ranges[lead:]) > _CHUNK_ROWS and lead < n - 1:
        lead += 1

    sizes = [len(r) for r in ranges[lead:]]
    tail = np.empty((math.prod(sizes), n - lead), dtype=np.int64)
    grid = tail.reshape(*sizes, n - lead)
    for j, r in enumerate(ranges[lead:]):
        grid[..., j] = r.reshape([-1 if i == j else 1 for i in range(n - lead)])
    # w is the one grid-length work column, reused in place
    tail_norms, w = np.zeros(len(tail), dtype=np.int64), np.empty(len(tail), dtype=np.int64)
    for j in range(n - lead):
        np.matmul(tail, G[lead:, lead + j], out=w)
        w *= tail[:, j]
        tail_norms += w
    cross = 2 * G[lead:, :lead]
    hits, norms = [], []
    # with lead == 0 the product yields one empty prefix: the whole box
    for prefix in itertools.product(*(r.tolist() for r in ranges[:lead])):
        p = np.array(prefix, dtype=np.int64)
        np.matmul(tail, cross @ p, out=w)
        w += tail_norms
        w += int(p @ G[:lead, :lead] @ p)
        keep = w >= kmin
        keep &= w <= kmax
        hit = tail[keep]
        hits.append(np.hstack([np.broadcast_to(p, (len(hit), lead)), hit]))
        norms.append(w[keep])

    # the prefixes are distinct, so the hits are distinct
    hits, norms = np.concatenate(hits), np.concatenate(norms)
    return {k: Shell(k, hits[norms == k], L) for k in range(kmin, kmax + 1)}


def brute_force_shell(L: GramLattice, k: int) -> Shell:
    """Reference enumeration of the norm-k shell by exhaustive box scan."""
    return brute_force_shells(L, k, kmin=k)[k]


# ---------------------------------------------------------------------------
# integer spans

def hermite_normal_form(rows) -> list:
    """Row-style Hermite normal form of the integer row span.

    Returns the nonzero rows: pivots positive, entries above each pivot reduced
    into [0, pivot).
    """
    H = [_integers(r) for r in rows]
    if not H:
        raise PreconditionError("hermite_normal_form needs at least one row")
    m, n = len(H), len(H[0])
    if any(len(r) != n for r in H):
        raise PreconditionError("hermite_normal_form needs rows of one length")
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if H[i][col] != 0), None)
        if piv is None:
            continue
        H[r], H[piv] = H[piv], H[r]
        while True:
            done = True
            for i in range(r + 1, m):
                if H[i][col] != 0:
                    done = False
                    if abs(H[i][col]) < abs(H[r][col]):
                        H[r], H[i] = H[i], H[r]
                    q = H[i][col] // H[r][col]
                    H[i] = [a - q * b for a, b in zip(H[i], H[r])]
            if done:
                break
        if H[r][col] < 0:
            H[r] = [-a for a in H[r]]
        for i in range(r):
            q = H[i][col] // H[r][col]
            if q:
                H[i] = [a - q * b for a, b in zip(H[i], H[r])]
        r += 1
        if r == m:
            break
    return H[:r]


def span_of(vectors, L: GramLattice) -> SpanBasis:
    """Hermite normal form basis of the integer span of the given vectors,
    together with the Gram matrix of that basis under L's form."""
    vectors = list(vectors)
    for v in vectors:
        if len(v) != L.n:
            raise PreconditionError("vector length does not match lattice dimension")
    basis = hermite_normal_form(vectors) if vectors else []
    if not basis:
        raise PreconditionError("span_of needs a nonzero vector")
    rank = len(basis)
    gb = gram_products(basis, L.gram, basis).tolist()
    return SpanBasis(
        rank=rank,
        basis=tuple(tuple(row) for row in basis),
        gram=tuple(tuple(row) for row in gb),
    )


def gram_det(B: SpanBasis) -> int:
    """Exact determinant of the span's Gram matrix.

    A span's Gram matrix is positive definite, so elimination needs no
    pivoting and the last leading minor is the determinant.
    """
    return _elimination(B.gram)[-1][-1]


def is_even(B: SpanBasis) -> bool:
    """True when every basis vector of the span has even squared norm."""
    return all(B.gram[i][i] % 2 == 0 for i in range(B.rank))


# ---------------------------------------------------------------------------
# lattice document format (JSON): {"name": str, "dim": int, "gram": [[int]]}

def lattice_from_document(text: str) -> GramLattice:
    """Parse a lattice document; raises LatticeFormatError on malformed input
    and InvalidGramError when the matrix is not a valid Gram matrix."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LatticeFormatError(f"lattice document is not valid JSON: {exc}") from None
    except ValueError:
        # int() refuses longer literals; the limit bounds the time a parse takes
        raise LatticeFormatError(
            f"lattice document has an integer of more than {sys.get_int_max_str_digits()} digits, "
            "the limit on integer literals"
        ) from None
    if not isinstance(doc, dict):
        raise LatticeFormatError("lattice document must be a JSON object")
    if "dim" not in doc or "gram" not in doc:
        raise LatticeFormatError("lattice document needs 'dim' and 'gram' fields")
    dim = doc["dim"]
    gram = doc["gram"]
    name = doc.get("name")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise LatticeFormatError("'dim' must be a positive integer")
    if name is not None and not isinstance(name, str):
        raise LatticeFormatError("'name' must be a string")
    if (
        not isinstance(gram, list)
        or len(gram) != dim
        or any(not isinstance(row, list) or len(row) != dim for row in gram)
    ):
        raise LatticeFormatError("'gram' must be a dim x dim array")
    for row in gram:
        for x in row:
            if isinstance(x, bool) or not isinstance(x, int):
                raise LatticeFormatError("'gram' entries must be integers")
    return GramLattice(gram, name=name)


def lattice_to_document(L: GramLattice) -> str:
    doc = {"dim": L.n, "gram": [list(row) for row in L.gram]}
    if L.name is not None:
        doc["name"] = L.name
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
