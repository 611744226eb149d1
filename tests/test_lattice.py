import copy
import hashlib
import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shellbound import lattice as lattice_module
from shellbound.errors import PreconditionError
from shellbound.exactpoly import shell_bound
from shellbound.lattice import (
    GramLattice,
    InvalidGramError,
    LatticeFormatError,
    Shell,
    brute_force_shell,
    brute_force_shells,
    builtin,
    enumerate_shell,
    enumerate_shells,
    gram_det,
    gram_products,
    hermite_normal_form,
    inner,
    is_even,
    lattice_from_document,
    lattice_to_document,
    product_dtype,
    shell_count,
    shell_counts,
    span_of,
)
from shellbound.lattice import _CHUNK_ROWS, _box_bounds, _elimination, _isqrt, _pair_reduce, _search
from shellbound.verify import _C11_BUILTINS


class TestGramLattice:
    def test_builds_and_freezes(self):
        L = GramLattice([[2, -1], [-1, 2]], name="a2")
        assert L.n == 2
        assert L.gram == ((2, -1), (-1, 2))
        assert L.name == "a2"

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidGramError):
            GramLattice([[1, 0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidGramError):
            GramLattice([[1, 1], [0, 1]])

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidGramError):
            GramLattice([[1, 2], [2, 1]])

    def test_rejects_semidefinite(self):
        with pytest.raises(InvalidGramError):
            GramLattice([[1, 1], [1, 1]])

    def test_rejects_non_integer_entries(self):
        with pytest.raises(InvalidGramError):
            GramLattice([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(InvalidGramError):
            GramLattice([[True, False], [False, True]])
        for x in (np.True_, np.float64(2.0)):  # what operator.index refuses
            with pytest.raises(InvalidGramError, match="integers"):
                GramLattice([[x, 1], [1, 2]])

    @pytest.mark.parametrize("dtype", [np.int64, np.int8])
    def test_numpy_integer_entries_read_as_ints(self, dtype):
        a2 = GramLattice([[2, -1], [-1, 2]])
        for L in (GramLattice(np.array(a2.gram, dtype=dtype)), GramLattice([[dtype(2), -1], [-1, dtype(2)]])):
            assert L.gram == a2.gram and {type(x) for row in L.gram for x in row} == {int}
            assert L == a2 and hash(L) == hash(a2)

    def test_equality_and_hash(self):
        a = GramLattice([[1, 0], [0, 1]])
        b = GramLattice([[1, 0], [0, 1]])
        assert a == b
        assert hash(a) == hash(b)

    @pytest.mark.parametrize("name", ["zn:3", "an:4", "dn:5", "e8", "scaledz:9"])
    def test_keeps_its_elimination(self, name):
        L = builtin(name)
        assert L.elimination == _elimination(L.gram)
        assert L.elimination[-1][-1] == gram_det(span_of(np.identity(L.n, dtype=int).tolist(), L))


class TestBuiltinCatalog:
    def test_cubic(self):
        L = builtin("zn:3")
        assert L.n == 3
        assert L.gram == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_scaled_line(self):
        assert builtin("scaledz:9").gram == ((9,),)

    def test_an_determinant(self):
        for n in range(1, 7):
            B = span_of([tuple(1 if j == i else 0 for j in range(n)) for i in range(n)], builtin(f"an:{n}"))
            assert gram_det(B) == n + 1

    def test_dn_determinant(self):
        for n in range(2, 8):
            B = span_of([tuple(1 if j == i else 0 for j in range(n)) for i in range(n)], builtin(f"dn:{n}"))
            assert gram_det(B) == 4

    def test_e8_is_even_unimodular_minimum_two(self):
        L = builtin("e8")
        basis = [tuple(1 if j == i else 0 for j in range(8)) for i in range(8)]
        B = span_of(basis, L)
        assert gram_det(B) == 1
        assert is_even(B)
        assert len(enumerate_shell(L, 1)) == 0
        assert len(enumerate_shell(L, 2)) == 240

    def test_leech_is_even_unimodular_minimum_four(self):
        L = builtin("leech")
        basis = [tuple(1 if j == i else 0 for j in range(24)) for i in range(24)]
        B = span_of(basis, L)
        assert gram_det(B) == 1
        assert is_even(B)
        assert [len(enumerate_shell(L, k)) for k in (1, 2, 3, 4)] == [0, 0, 0, 196560]

    def test_leech_gram_is_the_published_constant(self):
        # the digest of the tuple literal the 24-row string replaced
        digest = hashlib.sha256(repr(builtin("leech").gram).encode()).hexdigest()
        assert digest == "f542a96e5654da3bd652f8131b198c062f2382123c0ced568800e1ae0547f4d2"

    @pytest.mark.parametrize("bad", ["zn:0", "an:0", "dn:1", "scaledz:0", "zn:x", "zn:", "nosuch", "e9", "zn:-3"])
    def test_rejects_bad_names(self, bad):
        for _ in range(2):  # a failed lookup is not cached
            with pytest.raises(LatticeFormatError):
                builtin(bad)

    def test_lookups_are_cached_per_name(self):
        assert builtin("e8") is builtin("e8")
        assert builtin("zn:3") is builtin("zn:3")
        assert builtin("zn:3") is not builtin("zn:4")
        assert builtin.cache_info().maxsize == 64


class TestInner:
    def test_values(self):
        L = builtin("an:2")
        assert inner(L, (1, 0), (0, 1)) == -1
        assert inner(L, (1, 1), (1, 1)) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            inner(builtin("zn:2"), (1, 0, 0), (0, 1))

    @pytest.mark.parametrize("x", [1.5, np.float64(2.0)])
    def test_rejects_non_integer_entries(self, x):
        # int() would truncate them: 1.5 gave the inner product 1.5
        with pytest.raises(PreconditionError, match="integers"):
            inner(builtin("zn:2"), [x, 0], [1, 0])
        with pytest.raises(PreconditionError, match="integers"):
            inner(builtin("zn:2"), [1, 0], [x, 0])

    def test_numpy_integer_rows(self):
        v = np.array([2, 3], dtype=np.int64)
        assert inner(builtin("an:2"), v, v) == 14
        assert type(inner(builtin("an:2"), v, v)) is int


class TestEnumerateShell:
    def test_cubic_norm_one(self):
        S = enumerate_shell(builtin("zn:4"), 1)
        assert len(S.vectors) == 8
        assert set(map(tuple, S.vectors.tolist())) == {
            tuple(s if j == i else 0 for j in range(4))
            for i in range(4)
            for s in (1, -1)
        }

    def test_empty_shell(self):
        assert enumerate_shell(builtin("zn:2"), 3).vectors.tolist() == []

    def test_e8_roots(self):
        assert len(enumerate_shell(builtin("e8"), 2).vectors) == 240

    def test_d4_roots(self):
        assert len(enumerate_shell(builtin("dn:4"), 2).vectors) == 24

    def test_rank_one(self):
        L = builtin("scaledz:4")
        assert enumerate_shell(L, 4).vectors.tolist() == [[-1], [1]]
        assert enumerate_shell(L, 16).vectors.tolist() == [[-2], [2]]
        assert enumerate_shell(L, 2).vectors.tolist() == []

    def test_canonical_order_and_antipodality(self):
        S = enumerate_shell(builtin("dn:4"), 2)
        rows = S.vectors.tolist()
        assert rows == sorted(rows)
        members = set(map(tuple, rows))
        for v in rows:
            assert tuple(-x for x in v) in members

    def test_norms_exact(self):
        L = builtin("an:3")
        for k in (1, 2, 3, 4):
            for v in enumerate_shell(L, k).vectors:
                assert inner(L, v, v) == k

    def test_rejects_bad_norm(self):
        with pytest.raises(ValueError):
            enumerate_shell(builtin("zn:2"), 0)
        with pytest.raises(ValueError):
            enumerate_shell(builtin("zn:2"), -1)

    def test_huge_entries_stay_exact(self):
        # pushes the verification past the float64 integer window
        q = 4 * 10**18
        L = GramLattice([[q, 0], [0, q]])
        S = enumerate_shell(L, q)
        assert S.vectors.tolist() == [[-1, 0], [0, -1], [0, 1], [1, 0]]

    def test_coordinates_past_float64_integers_rejected(self):
        # the shell is +-2**63 e_i, but the top level alone would list 2**63
        # integers, so the size guard refuses instead of running out of memory
        with pytest.raises(ValueError):
            enumerate_shell(builtin("zn:2"), 2**126)

    @pytest.mark.parametrize(
        "k, dtype",
        [(2**128, object), (2**100, np.int64)]
        + [(k, np.int64) for k in (2**40, 2**20, 2**10, 128**2, 127**2)],
    )
    def test_root_solved_coordinate_of_any_size(self, k, dtype):
        # the walked level holds only y_1 = 0; y_0 = +-sqrt(k) comes from the
        # root solve, which the size guard does not limit, and stays exact.
        # The search stores it in the narrowest type that holds its bound
        # ymax = sqrt(k) (int8 for 2**10 and 127**2), else in the arithmetic's
        # type (Python ints here); the shell is int64 or object whatever the
        # search's width
        width = {2**128: object, 2**100: object, 2**40: np.int32, 2**20: np.int16, 128**2: np.int16}.get(k, np.int8)
        L = GramLattice([[1, 0], [0, 4**70]])
        assert {rows.dtype for rows, _ in _search(L, k, k)} == {np.dtype(width)}
        V = enumerate_shell(L, k).vectors
        m = math.isqrt(k)
        assert V.tolist() == [[-m, 0], [m, 0]]
        assert V.dtype == dtype
        if dtype is np.int64:
            assert V.tobytes() == np.array([[-m, 0], [m, 0]], dtype=np.int64).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10**6), st.integers(1, 2**70))
    @example(1, 2**63 - 1)
    @example(1, 2**63)
    def test_rank_one_shell_is_plus_minus_m(self, q, m):
        L = GramLattice([[q]])
        V = enumerate_shell(L, q * m * m).vectors
        assert V.tolist() == [[-m], [m]]
        assert (V.dtype == np.int64) == (m < 2**63)
        k = q * m * m + 1
        if k % q or math.isqrt(k // q) ** 2 != k // q:
            assert len(enumerate_shell(L, k)) == 0

    def test_shell_count_helper(self):
        assert shell_count(builtin("zn:8"), 2) == 112

    @pytest.mark.parametrize("name, k", [("e8", 2), ("zn:3", 1), ("dn:4", 4), ("an:3", 2)])
    def test_search_emits_each_candidate_once(self, name, k):
        # both the root solve (kmin == k) and the range walk (kmin < k)
        L = builtin(name)
        for kmin in (k, 1):
            cand, norms = map(np.concatenate, zip(*_search(L, kmin, k)))
            assert len(np.unique(cand, axis=0)) == len(cand)
            assert len(np.unique(np.concatenate([cand, -cand]), axis=0)) == 2 * len(cand)
            assert norms.tolist() == gram_products(cand, L.gram).tolist()
            assert ((kmin <= norms) & (norms <= k)).all()

    @pytest.mark.parametrize("name", ["zn:3", "an:6", "dn:8", "e8", "leech"])
    def test_pair_reduction_keeps_catalog_bases(self, name):
        # catalog shells need no change of basis, so they are never mapped back
        L = builtin(name)
        R, U = _pair_reduce(L)
        assert R is L and U is None

    @pytest.mark.parametrize("m", [20, 30, 40, 44])
    def test_fibonacci_basis_of_z2(self, m):
        # det 1 with Gram entries up to 1.8e18, too skewed for any fixed
        # floating-point slack
        assert shell_count(_fibonacci_z2(m), 1) == 4

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=8),
           st.lists(st.integers(0, 2**62 - 1), max_size=8))
    def test_isqrt_matches_math_isqrt(self, roots, values):
        # squares and their predecessors are where a float root rounds wrong
        v = values + [s * s for s in roots] + [max(s * s - 1, 0) for s in roots]
        assert _isqrt(np.array(v, dtype=np.int64)).tolist() == [math.isqrt(x) for x in v]
        assert _isqrt(np.array(v, dtype=object)).tolist() == [math.isqrt(x) for x in v]


@st.composite
def _gram_and_rows(draw, g, v):
    """A positive definite Gram matrix with entries near g, and two row sets
    with entries in [-v, v], one of them pinned at v."""
    n = draw(st.integers(2, 4))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            gram[i][j] = gram[j][i] = draw(st.integers(-g, g))
    for i in range(n):
        # strictly diagonally dominant, hence positive definite
        gram[i][i] = n * g + draw(st.integers(1, g))
    rows = st.lists(st.lists(st.integers(-v, v), min_size=n, max_size=n), min_size=1, max_size=4)
    A, B = draw(rows), draw(rows)
    A[0][0] = v
    return GramLattice(gram), A, B


# (regime, Gram scale, entry bound): (n*v)**2 * max|G| lies below 2**24, in
# [2**24, 2**52), in [2**52, 2**62) and above 2**62 for every n in 2..4
_REGIMES = [
    (np.float32, 2**4, 2**6),
    (np.float64, 2**10, 2**12),
    (np.int64, 2**10, 2**20),
    (object, 2**10, 2**30),
]


class TestGramProducts:
    @pytest.mark.parametrize("dtype, g, v", _REGIMES, ids=["float32", "float64", "int64", "object"])
    def test_matches_scalar_inner(self, dtype, g, v):
        @settings(max_examples=40, deadline=None)
        @given(_gram_and_rows(g, v))
        def check(case):
            L, A, B = case
            assert product_dtype(v, L.gram) is dtype
            P = gram_products(A, L.gram, B)
            assert P.dtype == (object if dtype is object else np.int64)
            assert P.tolist() == [[inner(L, a, b) for b in B] for a in A]
            assert gram_products(A, L.gram).tolist() == [inner(L, a, a) for a in A]

        check()

    @pytest.mark.parametrize(
        "g, v, dtype",
        [((2**24 - 1) // 9, 3, np.float32), (2**24 + 1, 1, np.float64)],
        ids=["below-2**24", "above-2**24"],
    )
    def test_float32_rung_ends_at_2_to_24(self, g, v, dtype):
        # rank 1: the one product v*g*v is the bound itself, 2**24 - 1 or
        # 2**24 + 1; float32 would round the Gram entry 2**24 + 1 to 2**24
        L = GramLattice([[g]])
        assert product_dtype(v, L.gram) is dtype
        assert gram_products([[v]], L.gram).tolist() == [inner(L, [v], [v])] == [g * v * v]
        assert gram_products([[v]], L.gram, [[-v]]).tolist() == [[-g * v * v]]


def _fibonacci_z2(m):
    """Z^2 in the basis (F_{m+1}, F_m), (F_m, F_{m-1})."""
    F = [0, 1]
    while len(F) < m + 2:
        F.append(F[-1] + F[-2])
    basis = [(F[m + 1], F[m]), (F[m], F[m - 1])]
    return GramLattice([[u[0] * v[0] + u[1] * v[1] for v in basis] for u in basis])


_SHELL_CASES = [(name, k) for name in ("zn:2", "an:3", "dn:4", "e8", "scaledz:4") for k in range(1, 5)]


@st.composite
def _pair_reduced_gram(draw):
    """A positive definite Gram matrix of rank 2 to 4 with 2|g_ij| <= g_jj,
    diagonal at most 4: a basis the search runs in as given."""
    n = draw(st.integers(2, 4))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = draw(st.integers(1, 4))
    for i in range(n):
        for j in range(i):
            bound = min(gram[i][i], gram[j][j]) // 2
            gram[i][j] = gram[j][i] = draw(st.integers(-bound, bound))
    assume(_elimination(gram) is not None)
    return GramLattice(gram)


class TestShellArray:
    # zn:2 at k=3 and scaledz:4 at k=1..3 are empty; scaledz:1 at 2**126 and
    # 10**40 has coordinates beyond int64
    @pytest.mark.parametrize(
        "name, k", _SHELL_CASES + [("scaledz:1", 2**126), ("scaledz:1", 10**40)]
    )
    def test_invariants(self, name, k):
        S = enumerate_shell(builtin(name), k)
        V = S.vectors
        with pytest.raises(ValueError):
            V[...] = 0
        rows = V.tolist()
        assert all(a < b for a, b in zip(rows, rows[1:]))
        assert np.array_equal(V[::-1], -V)
        assert (gram_products(V, S.lattice.gram) == k).all()
        assert V.dtype == (object if k >= 2**126 else np.int64)

    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 1], [1, 0]],
            np.array([0, 1]),
            np.zeros((1, 1, 2), dtype=np.int64),
            # rows of width 3 on rank 2 (classify reported them as dim=2, NONE), and of width 1
            np.array([[1, 0, 0], [-1, 0, 0]]),
            np.array([[1], [-1]]),
        ],
    )
    def test_rows_must_be_a_2d_array(self, rows):
        with pytest.raises(PreconditionError, match="2-D numpy array of 2 columns"):
            Shell(1, rows, builtin("zn:2"))

    @pytest.mark.parametrize(
        "rows",
        [
            [[-1, 0], [-1, 0], [1, 0], [1, 0]],  # antipodal, but a repeated pair
            [[-1, 0], [0, 0], [1, 0]],  # odd count: the zero row is its own negation
        ],
        ids=["duplicate-rows", "odd-count"],
    )
    def test_rows_must_be_distinct_pm_pairs(self, rows):
        with pytest.raises(ValueError, match="distinct"):
            Shell(1, np.array(rows), builtin("zn:2"))

    @pytest.mark.parametrize("k", [True, 0, 1.0])
    def test_k_must_be_a_positive_int(self, k):
        with pytest.raises(ValueError, match="positive integer"):
            Shell(k, np.array([[-1, 0], [1, 0]]), builtin("zn:2"))

    @pytest.mark.parametrize(
        "rows",
        [
            np.array([[1.5, 0], [-1.5, 0]]),  # not lattice vectors
            np.array([[255, 0], [1, 0]], dtype=np.uint8),  # -1 and 1 as uint8
            np.array([[-1, 0.5], [1, -0.5]], dtype=object),
        ],
        ids=["float", "unsigned", "object-float"],
    )
    def test_rows_must_be_signed_integers(self, rows):
        with pytest.raises(ValueError, match="integers"):
            Shell(1, rows, builtin("zn:2"))

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, object])
    def test_stores_int64_while_every_coordinate_fits(self, dtype):
        S = Shell(1, np.array([[1, 0], [-1, 0]], dtype=dtype), builtin("zn:2"))
        assert S.vectors.dtype == np.int64
        assert S.vectors.tolist() == [[-1, 0], [1, 0]]
        big = np.array([[2**63, 0], [-(2**63), 0]], dtype=object)
        assert Shell(2**126, big, builtin("zn:2")).vectors.dtype == object

    def test_keeps_its_own_sorted_copy(self):
        rows = np.array([[1, 0], [0, -1], [0, 1], [-1, 0]])
        S = Shell(1, rows, builtin("zn:2"))
        assert S.vectors.tolist() == [[-1, 0], [0, -1], [0, 1], [1, 0]]
        assert not S.vectors.flags.writeable
        # the caller's array is neither reordered nor frozen
        assert rows.flags.writeable
        assert rows.tolist() == [[1, 0], [0, -1], [0, 1], [-1, 0]]

    @pytest.mark.parametrize("name", ["k", "vectors", "lattice", "other"])
    def test_attributes_cannot_be_rebound(self, name):
        S = enumerate_shell(builtin("zn:2"), 1)
        with pytest.raises(AttributeError):
            setattr(S, name, None)
        with pytest.raises(AttributeError):
            delattr(S, name)
        assert (S.k, len(S), S.lattice) == (1, 4, builtin("zn:2"))

    def test_equality_is_identity(self):
        rows = np.array([[1, 0], [-1, 0]])
        S, T = Shell(1, rows, builtin("zn:2")), Shell(1, rows, builtin("zn:2"))
        assert S == S and S != T
        assert len({S, T}) == 2

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), L=_pair_reduced_gram(), big=st.booleans())
    def test_builds_exactly_when_every_row_has_norm_k(self, data, L, big):
        # distinct +-pairs of random rows, scaled by 2**63 past int64 when big,
        # against a random k or, keeping only its rows, a norm that occurs
        vec = st.lists(st.integers(-2, 2), min_size=L.n, max_size=L.n).filter(any)
        reps = sorted({max(tuple(v), tuple(-x for x in v)) for v in data.draw(st.lists(vec, max_size=6))})
        k = data.draw(st.integers(1, 40))
        if reps and data.draw(st.booleans()):
            norms = [inner(L, v, v) for v in reps]
            k = data.draw(st.sampled_from(norms))
            reps = [v for v, q in zip(reps, norms) if q == k]
        scale = 2**63 if big else 1
        rows = [[scale * s * x for x in v] for v in reps for s in (1, -1)]
        V, k = np.array(rows, dtype=object).reshape(-1, L.n), scale**2 * k
        if all(inner(L, v, v) == k for v in rows):
            S = Shell(k, V, L)
            assert len(S) == len(rows) and S.vectors.dtype == (object if big and rows else np.int64)
        else:
            with pytest.raises(PreconditionError, match=f"squared norm {k}"):
                Shell(k, V, L)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda S: pickle.loads(pickle.dumps(S))])
    def test_copies_rebuild_a_checked_shell(self, clone):
        S = enumerate_shell(builtin("e8"), 2)
        C = clone(S)
        assert C is not S and C.k == 2 and C.lattice == S.lattice
        assert np.array_equal(C.vectors, S.vectors) and not C.vectors.flags.writeable


# every norm up to K: zn/an/dn through rank 6, e8, and rank 1
_BATCH_CASES = (
    [(f"{family}:{n}", 6) for family, least in (("zn", 1), ("an", 1), ("dn", 2)) for n in range(least, 7)]
    + [("e8", 4)] + [(f"scaledz:{q}", 40) for q in (1, 2, 4, 9)]
)


@st.composite
def _unimodular_rebase(draw):
    """A catalog lattice in the basis B after 1 to 12 column operations
    b_i += c b_j with 2 <= |c| <= 4."""
    name = draw(st.sampled_from(["zn:2", "zn:3", "zn:4", "an:3", "an:4", "dn:4", "dn:5"]))
    G = builtin(name).gram
    n = len(G)
    B = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(1, 12))):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = draw(st.sampled_from([-4, -3, -2, 2, 3, 4]))
        for row in B:
            row[i] += c * row[j]
    gram = [[sum(B[a][p] * G[a][b] * B[b][q] for a in range(n) for b in range(n))
             for q in range(n)] for p in range(n)]
    return name, GramLattice(gram)


class TestPairReduction:
    """_pair_reduce(L) returns (R, U) with R.gram = U^T G U exactly, det U = +-1
    and 2|R_ij| <= R_jj, or (L, None) when L's basis is already reduced."""

    @staticmethod
    def _assert_contract(L):
        R, U = _pair_reduce(L)
        if U is None:
            assert R is L
            U = [[int(i == j) for j in range(L.n)] for i in range(L.n)]
        n, G = L.n, L.gram
        assert R.gram == tuple(
            tuple(sum(U[a][p] * G[a][b] * U[b][q] for a in range(n) for b in range(n)) for q in range(n))
            for p in range(n)
        )
        # det(U^T U) = det(U)**2, exact through the fraction-free elimination
        UtU = [[sum(U[a][p] * U[a][q] for a in range(n)) for q in range(n)] for p in range(n)]
        assert _elimination(UtU)[-1][-1] == 1
        assert all(2 * abs(R.gram[i][j]) <= R.gram[j][j] for i in range(n) for j in range(n) if i != j)
        return R

    @pytest.mark.parametrize("m", [20, 30, 40, 44])
    def test_fibonacci_bases(self, m):
        assert self._assert_contract(_fibonacci_z2(m)).gram == ((1, 0), (0, 1))

    @settings(max_examples=40, deadline=None)
    @given(_unimodular_rebase())
    def test_rebased_bases(self, case):
        self._assert_contract(case[1])


class TestBatchedShells:
    @pytest.mark.parametrize("name, K", _BATCH_CASES)
    def test_one_search_gives_every_shell(self, name, K):
        L = builtin(name)
        shells = enumerate_shells(L, K)
        assert list(shells) == list(range(1, K + 1))
        for k, S in shells.items():
            assert (S.k, S.lattice) == (k, L)
            assert not S.vectors.flags.writeable
            assert np.array_equal(S.vectors, enumerate_shell(L, k).vectors)

    @pytest.mark.parametrize("name, K", [case for case in _BATCH_CASES if case[0] != "e8"])
    def test_one_box_scan_gives_every_shell(self, name, K):
        L = builtin(name)
        shells = brute_force_shells(L, K)
        assert list(shells) == list(range(1, K + 1))
        for k, S in shells.items():
            assert S.k == k
            assert np.array_equal(S.vectors, brute_force_shell(L, k).vectors)
            assert np.array_equal(S.vectors, enumerate_shell(L, k).vectors)

    def test_norm_range_with_both_ends_inside(self):
        L = builtin("dn:4")
        assert {k: len(S) for k, S in enumerate_shells(L, 6, kmin=3).items()} == {3: 0, 4: 24, 5: 0, 6: 96}
        assert {k: len(S) for k, S in brute_force_shells(L, 6, kmin=3).items()} == {3: 0, 4: 24, 5: 0, 6: 96}
        assert shell_counts(L, 6, kmin=3) == {3: 0, 4: 24, 5: 0, 6: 96}

    @pytest.mark.parametrize("bad", [(0, 1), (3, 0), (2, True), (2.0, 1)])
    def test_rejects_bad_norms(self, bad):
        kmax, kmin = bad
        for batched in (enumerate_shells, brute_force_shells, shell_counts):
            with pytest.raises(ValueError, match="positive integer"):
                batched(builtin("zn:2"), kmax, kmin=kmin)

    @settings(max_examples=40, deadline=None)
    @given(_unimodular_rebase())
    def test_rebased_basis_maps_every_shell_back(self, case):
        # U is not None: the search runs on R = U^T G U, a lattice eliminated anew
        name, L = case
        # operations that cancel can leave a basis the reduction keeps as is
        assume(_pair_reduce(L)[1] is not None)
        shells = enumerate_shells(L, 4)
        for k, S in shells.items():
            assert np.array_equal(S.vectors, enumerate_shell(L, k).vectors)
            assert len(S) == len(enumerate_shell(builtin(name), k))
            assert (gram_products(S.vectors, L.gram) == k).all()


class TestShellCounts:
    @settings(max_examples=60, deadline=None)
    @given(_pair_reduced_gram(), st.integers(1, 8))
    def test_counts_match_the_shells_in_a_reduced_basis(self, L, K):
        assert shell_counts(L, K) == {k: len(S) for k, S in enumerate_shells(L, K).items()}

    @settings(max_examples=40, deadline=None)
    @given(_unimodular_rebase(), st.integers(1, 4))
    def test_counts_match_the_shells_in_a_skewed_basis(self, case, K):
        name, L = case
        counts = shell_counts(L, K)
        assert counts == {k: len(S) for k, S in enumerate_shells(L, K).items()}
        assert counts == shell_counts(builtin(name), K)

    def test_e8_count_holds_narrow_frontiers(self):
        # C08's count: every frontier holds int8 coordinates (ymax = 39), so
        # the levels in progress take a fraction of int64's 8 bytes per entry
        tracemalloc.start()
        try:
            assert shell_counts(builtin("e8"), 6) == {1: 0, 2: 240, 3: 0, 4: 2160, 5: 0, 6: 6720}
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    def test_a_huge_norm_is_counted_in_bounded_memory(self):
        # one row at the top level has 2**22 + 1 children: they come in pieces
        tracemalloc.start()
        try:
            assert shell_count(builtin("zn:2"), 2**44) == 4
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestSearchChunks:
    @pytest.mark.parametrize("name, K", [("e8", 6), ("an:4", 4)])
    @pytest.mark.parametrize("rows", [3, 7])
    def test_chunk_boundaries_change_no_byte(self, monkeypatch, name, K, rows):
        L = builtin(name)
        whole = enumerate_shells(L, K)
        single = {k: enumerate_shell(L, k) for k in range(1, K + 1)}
        monkeypatch.setattr(lattice_module, "_CHUNK_ROWS", rows)
        for k, S in enumerate_shells(L, K).items():
            assert S.vectors.tobytes() == whole[k].vectors.tobytes()
            assert enumerate_shell(L, k).vectors.tobytes() == single[k].vectors.tobytes()
        assert shell_counts(L, K) == {k: len(S) for k, S in whole.items()}

    @pytest.mark.parametrize(
        "name, k, width",
        [("e8", 6, np.int8), ("dn:8", 6, np.int8), ("zn:8", 6, np.int8), ("an:4", 4, np.int8), ("leech", 4, np.int32)],
    )
    def test_chunks_take_the_narrowest_width(self, name, k, width):
        # ymax = isqrt(k prod(G_ii) / det G): 39 for e8 at 6, 2**25 for leech at 4
        L = builtin(name)
        for kmin in (k, 1):
            rows, norms = next(_search(L, kmin, k))
            assert rows.dtype == width and norms.dtype == np.int64

    @pytest.mark.parametrize("kmin", [1, 6])
    def test_no_chunk_exceeds_the_limit(self, monkeypatch, kmin):
        monkeypatch.setattr(lattice_module, "_CHUNK_ROWS", 5)
        chunks = list(_search(builtin("e8"), kmin, 6))
        assert max(len(rows) for rows, _ in chunks) <= 5
        assert sum(len(rows) for rows, _ in chunks) == sum(shell_counts(builtin("e8"), 6, kmin).values()) // 2


class TestBruteForceOracle:
    @pytest.mark.parametrize("name", ["zn:2", "zn:3", "an:2", "an:3", "dn:3", "dn:4", "scaledz:2", "scaledz:9"])
    @pytest.mark.parametrize("k", range(1, 5))
    def test_agreement(self, name, k):
        L = builtin(name)
        assert np.array_equal(enumerate_shell(L, k).vectors, brute_force_shell(L, k).vectors)

    @pytest.mark.parametrize(
        "name, k, lead", [("scaledz:2", 8, 0), ("zn:2", 1, 0), ("zn:6", 4, 1), ("zn:6", 9, 2), ("zn:6", 25, 3)]
    )
    def test_agreement_in_slices(self, name, k, lead):
        # lead: the coordinates the scan must fix so the rest fits a chunk
        L = builtin(name)
        sizes = [2 * b + 1 for b in _box_bounds(L, k)]
        assert math.prod(sizes[lead:]) <= _CHUNK_ROWS
        assert lead == 0 or math.prod(sizes[lead - 1 :]) > _CHUNK_ROWS
        assert np.array_equal(enumerate_shell(L, k).vectors, brute_force_shell(L, k).vectors)

    @pytest.mark.parametrize("name, k, lead", [("zn:2", 1, 0), ("zn:6", 4, 1), ("zn:6", 9, 2)])
    def test_one_pass_per_fixed_prefix(self, monkeypatch, name, k, lead):
        # each pass stacks its prefix onto its hits once; a box that fits one
        # chunk is scanned in a single pass
        passes, hstack = [], np.hstack
        monkeypatch.setattr(np, "hstack", lambda arrays: passes.append(1) or hstack(arrays))
        brute_force_shell(builtin(name), k)
        assert len(passes) == math.prod(2 * b + 1 for b in _box_bounds(builtin(name), k)[:lead])

    @pytest.mark.parametrize("name", _C11_BUILTINS)
    def test_box_holds_the_shell(self, name):
        L = builtin(name)
        for k in range(1, 7):
            V = enumerate_shell(L, k).vectors
            if len(V):
                assert (np.array(_box_bounds(L, k)) >= np.abs(V).max(axis=0)).all()

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_cubic_box_is_isqrt_k(self, n):
        for k in (1, 2, 3, 4, 9, 10):
            assert _box_bounds(builtin(f"zn:{n}"), k) == [math.isqrt(k)] * n

    def test_scan_memory_stays_bounded(self):
        tracemalloc.start()
        try:
            brute_force_shell(builtin("an:6"), 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_scan_builds_no_whole_box(self):
        # dn:6 at k=6 has a 139k-row box; only the hits become full rows
        tracemalloc.start()
        try:
            brute_force_shell(builtin("dn:6"), 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_scan_holds_one_chunk_of_tails(self):
        # dn:6 up to k=6: the tail grid has at most _CHUNK_ROWS rows, far
        # fewer than the 139k-row box, so the hits of norms 1..6 set the peak
        tracemalloc.start()
        try:
            brute_force_shells(builtin("dn:6"), 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2**20

    def test_tail_grid_is_built_once(self):
        # zn:6 at k=25: the 1331 x 3 int64 tail grid is 31 KB, and the 7812
        # hits set the peak; no meshgrid, stacked copy or grid-sized product
        # may sit beside the grid
        tracemalloc.start()
        try:
            brute_force_shell(builtin("zn:6"), 25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20

    def test_box_past_exact_float64_raises(self):
        # Z^2 in a Fibonacci basis (det 1): the box is about 1.6e4 x 2.6e4
        L = GramLattice([[165580141, 102334155], [102334155, 63245986]])
        with pytest.raises(ValueError, match="float64"):
            brute_force_shell(L, 1)

    def test_counts_below_bound(self):
        for name in ("zn:4", "an:3", "dn:5"):
            L = builtin(name)
            for k in range(1, 6):
                assert shell_count(L, k) <= shell_bound(L.n, k)


class TestHermiteNormalForm:
    def test_identity_fixed(self):
        assert hermite_normal_form([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]

    def test_swapped_rows(self):
        assert hermite_normal_form([[0, 1], [1, 0]]) == [[1, 0], [0, 1]]

    def test_reduces_above_pivot(self):
        h = hermite_normal_form([[2, 4], [1, 1]])
        assert h == [[1, 1], [0, 2]]

    def test_drops_dependent_rows(self):
        h = hermite_normal_form([[1, 2], [2, 4], [3, 6]])
        assert h == [[1, 2]]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            hermite_normal_form([])

    @pytest.mark.parametrize("rows", [[[1], [2, 1]], [[2, 1], [1]], [[0, 1], [1]]])
    def test_rejects_ragged_rows(self, rows):
        # zip truncated the longer row: the first gave [[1]], the others an IndexError
        with pytest.raises(PreconditionError, match="one length"):
            hermite_normal_form(rows)

    @pytest.mark.parametrize("x", [1.5, np.float64(2.0)])
    def test_rejects_non_integer_entries(self, x):
        # int() would truncate them: [[1.5, 0]] gave [[1, 0]]
        with pytest.raises(PreconditionError, match="integers"):
            hermite_normal_form([[x, 0], [0, 1]])


class TestSpan:
    def test_cubic_norm_one_span(self):
        L = builtin("zn:3")
        B = span_of(enumerate_shell(L, 1).vectors, L)
        assert B.rank == 3
        assert B.gram == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert gram_det(B) == 1
        assert not is_even(B)

    def test_e8_root_span(self):
        L = builtin("e8")
        B = span_of(enumerate_shell(L, 2).vectors, L)
        assert B.rank == 8
        assert gram_det(B) == 1
        assert is_even(B)

    def test_single_vector(self):
        B = span_of([(2, 0)], builtin("zn:2"))
        assert B.rank == 1
        assert B.gram == ((4,),)
        assert gram_det(B) == 4

    def test_rank_deficient(self):
        L = GramLattice([[1, 0, 0], [0, 1, 0], [0, 0, 4]])
        B = span_of(enumerate_shell(L, 1).vectors, L)
        assert B.rank == 2
        assert B.gram == ((1, 0), (0, 1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            span_of([], builtin("zn:2"))

    def test_rejects_a_span_of_zero(self):
        with pytest.raises(ValueError, match="nonzero"):
            span_of([[0, 0], [0, 0]], builtin("zn:2"))

    @pytest.mark.parametrize("x", [1.5, np.float64(2.0)])
    def test_rejects_non_integer_entries(self, x):
        # 1.5 was truncated: rank 1 with basis ((1, 0),)
        with pytest.raises(PreconditionError, match="integers"):
            span_of([[x, 0]], builtin("zn:2"))

    def test_entries_beyond_int64(self):
        B = span_of([(2**70, 0), (0, 3)], builtin("zn:2"))
        assert B.gram == ((2**140, 0), (0, 9))
        assert all(type(x) is int for row in B.gram for x in row)
        assert gram_det(B) == 9 * 2**140


class TestDocuments:
    def test_round_trip(self):
        L = builtin("e8")
        again = lattice_from_document(lattice_to_document(L))
        assert again == L
        assert again.name == L.name

    def test_unnamed_round_trip(self):
        L = GramLattice([[2, 1], [1, 2]])
        again = lattice_from_document(lattice_to_document(L))
        assert again.gram == L.gram
        assert again.name is None

    def test_accepts_big_integers(self):
        q = 10**30
        text = json.dumps({"dim": 1, "gram": [[q]]})
        assert lattice_from_document(text).gram == ((q,),)

    @pytest.mark.parametrize(
        "doc",
        [
            "not json",
            json.dumps({"gram": [[1]]}),
            json.dumps({"dim": 2, "gram": [[1, 0]]}),
            json.dumps({"dim": 1, "gram": [[1.5]]}),
            json.dumps({"dim": 1, "gram": [[True]]}),
            json.dumps({"dim": 2, "gram": [[1, 0], [0]]}),
            json.dumps({"dim": 1, "gram": [[1]], "name": 7}),
            json.dumps([1, 2, 3]),
        ],
    )
    def test_rejects_malformed(self, doc):
        with pytest.raises(LatticeFormatError):
            lattice_from_document(doc)

    def test_non_positive_definite_file_is_gram_error(self):
        text = json.dumps({"dim": 2, "gram": [[1, 2], [2, 1]]})
        with pytest.raises(InvalidGramError):
            lattice_from_document(text)
