import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st

from shellbound import design, verify

from shellbound.design import (
    PairDistribution,
    annihilator,
    annihilator_identity_holds,
    design_strength,
    moment_sum,
    pair_distribution,
    spectrum,
)
from shellbound.errors import CertificationError, InvalidGramError
from shellbound.exactpoly import Poly, gegenbauer, shell_bound
from shellbound.lattice import (
    GramLattice,
    Shell,
    builtin,
    enumerate_shell,
    enumerate_shells,
    inner,
    product_dtype,
)

HALF = Fraction(1, 2)


@st.composite
def _reduced_gram(draw):
    """A positive definite integral Gram matrix of rank 2-4, pairwise reduced:
    diagonal entries in 1..4 and |2 g_ij| <= min(g_ii, g_jj)."""
    n = draw(st.integers(2, 4))
    diag = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    gram = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            b = min(diag[i], diag[j]) // 2
            gram[i][j] = gram[j][i] = draw(st.integers(-b, b))
    try:
        return GramLattice(gram)
    except InvalidGramError:  # reduced but not positive definite
        reject()


@pytest.fixture(scope="module")
def e8_shell():
    return enumerate_shell(builtin("e8"), 2)


class TestPairDistribution:
    def test_square(self):
        S = enumerate_shell(builtin("zn:2"), 1)
        dist = pair_distribution(S)
        assert dist.counts == {-1: 4, 0: 8}
        assert (dist.k, dist.n, dist.size) == (1, 2, 4)

    def test_e8_known_shell_structure(self, e8_shell):
        dist = pair_distribution(e8_shell)
        assert dist.counts == {-2: 240, -1: 240 * 56, 0: 240 * 126, 1: 240 * 56}

    def test_total_is_ordered_pairs(self):
        for name, k in (("dn:4", 2), ("an:2", 2), ("zn:3", 2)):
            S = enumerate_shell(builtin(name), k)
            dist = pair_distribution(S)
            n_vec = len(S.vectors)
            assert sum(dist.counts.values()) == n_vec * (n_vec - 1)

    def test_threads_do_not_change_counts(self):
        S = enumerate_shell(builtin("zn:4"), 2)
        assert pair_distribution(S).counts == pair_distribution(S, threads=2).counts

    def test_threads_capped_at_usable_cpus(self, two_cpu_executors):
        S = enumerate_shell(builtin("e8"), 6)  # 6720 vectors, several blocks
        serial = pair_distribution(S).counts
        assert pair_distribution(S, threads=10**6).counts == serial
        assert two_cpu_executors == [2]

    @pytest.mark.parametrize(
        "q, dtype",
        [(10**6, np.float32), (10**7, np.float64), (2**55, np.int64), (4 * 10**18, object)],
        ids=["float32", "float64", "int64", "object"],
    )
    def test_cost_follows_the_shell_not_k(self, q, dtype):
        # four vectors at norm q: only two products occur, whatever q is
        L = GramLattice([[q, 0], [0, q]])
        assert product_dtype(1, L.gram) is dtype
        S = enumerate_shell(L, q)
        start = time.perf_counter()
        dist = pair_distribution(S)
        assert time.perf_counter() - start < 1.0
        assert dist.counts == {-q: 4, 0: 8}
        # plain ints, never numpy scalars, so the counts serialize as they are
        assert all(type(x) is int for item in dist.counts.items() for x in item)

    def test_empty_shell_rejected(self):
        S = enumerate_shell(builtin("zn:2"), 3)
        with pytest.raises(ValueError):
            pair_distribution(S)

    def test_odd_shell_rejected(self):
        with pytest.raises(ValueError):
            Shell(1, np.array([[-1, 0], [0, 1], [1, 0]]), builtin("zn:2"))

    def test_wrong_norm_rejected(self):
        S = Shell(1, np.array([[-1, -1], [1, 1]]), builtin("zn:2"))
        with pytest.raises(ValueError):
            pair_distribution(S)

    def test_rows_out_of_antipodal_order_rejected(self):
        # two norm-1 vectors that are not a +-pair: counted as one pair they
        # gave {-1: 2}, strength 1 and tight=True
        with pytest.raises(ValueError):
            Shell(1, np.array([[0, 1], [1, 0]]), builtin("zn:2"))

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_reduced_gram())
    def test_kernel_matches_the_reference_tally(self, two_cpu_executors, L):
        # the kernel's integer keys, with the diagonal <y,y> = k, are the keys
        # of the Python-int tally that C11 checks the moments against
        for k, S in enumerate_shells(L, 4).items():
            if len(S):
                tally = verify._inner_tally(S)
                for threads in (1, 2):
                    dist = pair_distribution(S, threads=threads)
                    assert Counter(dist.counts) + Counter({k: len(S)}) == tally, (L.gram, k, threads)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        L=st.one_of(_reduced_gram(), st.just(builtin("e8"))),
        scale=st.sampled_from([1, 3, 64]),
        tile=st.sampled_from([1, 3, 5, 17]),
        k=st.integers(1, 4),
    )
    @example(L=builtin("e8"), scale=64, tile=17, k=2)
    @example(L=builtin("e8"), scale=1, tile=5, k=2)
    def test_ragged_tiles_fold_to_the_reference_tally(self, monkeypatch, L, scale, tile, k):
        # odd tiles leave ragged edges and many off-diagonal tiles; scaling the
        # Gram by 3 or 64 moves norm k to 3k or 64k, so tiles are tallied by
        # bincount or, below 2k+1 products (64 E8 at k = 128 in tiles of
        # fewer than 257), by unique; real threads split the row strips
        monkeypatch.setattr(design, "_TILE", tile)
        k = min(k, 2) if L.n == 8 else k  # E8 shells past k = 2 hold thousands of vectors
        S = enumerate_shell(GramLattice([[scale * g for g in row] for row in L.gram]), scale * k)
        if len(S):
            tally = verify._inner_tally(S)
            for threads in (1, 2):
                dist = pair_distribution(S, threads=threads)
                assert Counter(dist.counts) + Counter({S.k: len(S)}) == tally, (L.gram, S.k, tile, threads)

    def test_working_set_is_one_tile(self):
        # 3360 representatives: one float32 tile of 512 x 512 products is
        # 1 MiB, where a 1191-row float64 block of all 3360 columns and its
        # int64 cast took about 64 MiB
        S = enumerate_shell(builtin("e8"), 6)
        tracemalloc.start()
        try:
            dist = pair_distribution(S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(dist.counts.values()) == 6720 * 6719
        assert peak < 16 * 2**20

    @pytest.mark.slow
    def test_leech_minimal_vectors(self):
        # Conway-Sloane, SPLAG ch. 4: each of the 196560 minimal vectors meets
        # 4600 others at <y,z> = +-2, 47104 at +-1 and 93150 at 0; the shell is
        # a tight 11-design
        S = enumerate_shell(builtin("leech"), 4)
        N = 196560
        dist = pair_distribution(S, threads=2)
        assert dist.counts == {-4: N, -2: N * 4600, -1: N * 47104, 0: N * 93150, 1: N * 47104, 2: N * 4600}
        report = design_strength(dist)
        assert (report.strength, report.tight, report.capped) == (11, True, False)

    def test_matches_naive_count(self):
        S = enumerate_shell(builtin("an:3"), 2)
        L = S.lattice
        naive = {}
        V = S.vectors.tolist()
        for y in V:
            for z in V:
                if y == z:
                    continue
                j = inner(L, y, z)
                naive[j] = naive.get(j, 0) + 1
        assert pair_distribution(S).counts == naive


class TestSpectrum:
    def test_cubic(self):
        S = enumerate_shell(builtin("zn:4"), 1)
        assert spectrum(pair_distribution(S)).values == (Fraction(-1), Fraction(0))

    def test_e8(self, e8_shell):
        assert spectrum(pair_distribution(e8_shell)).values == (Fraction(-1), -HALF, Fraction(0), HALF)

    def test_values_sorted(self):
        S = enumerate_shell(builtin("dn:4"), 2)
        vals = spectrum(pair_distribution(S)).values
        assert vals == tuple(sorted(vals))

    @pytest.mark.parametrize("j", [-3, 2])
    def test_rejects_inner_product_outside_the_norm_range(self, j):
        # between distinct norm-2 vectors <y,z> lies in [-2, 2)
        dist = PairDistribution(k=2, n=2, size=2, counts={-2: 2, j: 0})
        with pytest.raises(CertificationError, match=f"inner product {j} lies outside"):
            spectrum(dist)


class TestMomentSum:
    def test_never_negative(self, e8_shell):
        dist = pair_distribution(e8_shell)
        for i in range(1, 13):
            assert moment_sum(dist, i) >= 0

    def test_e8_vanishing_pattern(self, e8_shell):
        # harmonic moments vanish through degree 7 and not at degree 8
        dist = pair_distribution(e8_shell)
        for i in range(1, 8):
            assert moment_sum(dist, i) == 0
        assert moment_sum(dist, 8) > 0

    def test_odd_degrees_vanish_by_antipodality(self):
        S = enumerate_shell(builtin("dn:4"), 2)
        dist = pair_distribution(S)
        for i in (1, 3, 5, 7, 9):
            assert moment_sum(dist, i) == 0

    def test_matches_direct_double_sum(self):
        S = enumerate_shell(builtin("zn:3"), 2)
        L = S.lattice
        dist = pair_distribution(S)
        for i in range(1, 6):
            q = gegenbauer(3, i)
            direct = sum(
                q(Fraction(inner(L, y, z), S.k)) for y in S.vectors for z in S.vectors
            )
            assert moment_sum(dist, i) == direct

    def test_rejects_bad_arguments(self):
        S = enumerate_shell(builtin("zn:2"), 1)
        dist = pair_distribution(S)
        with pytest.raises(ValueError, match="need n >= 2"):
            moment_sum(pair_distribution(enumerate_shell(builtin("scaledz:1"), 1)), 2)
        with pytest.raises(ValueError):
            moment_sum(dist, 0)


class TestDesignStrength:
    def test_e8_tight_seven(self, e8_shell):
        report = design_strength(pair_distribution(e8_shell))
        assert report.strength == 7
        assert report.tight
        assert not report.capped
        assert report.fisher_bound == 240
        assert report.count == 240

    def test_square_is_tight_three(self):
        S = enumerate_shell(builtin("zn:2"), 1)
        report = design_strength(pair_distribution(S))
        assert report.strength == 3
        assert report.tight

    def test_hexagon_is_tight_five(self):
        S = enumerate_shell(builtin("an:2"), 2)
        report = design_strength(pair_distribution(S))
        assert report.strength == 5
        assert report.tight

    def test_d4_roots_are_five_design_not_tight(self):
        # frozen against a direct sphere-average moment check
        S = enumerate_shell(builtin("dn:4"), 2)
        report = design_strength(pair_distribution(S))
        assert report.strength == 5
        assert not report.tight
        assert report.fisher_bound == 20

    def test_group_bounds(self):
        # every shell is a t-design below the lowest degree of a harmonic
        # invariant of the automorphism group; some bounds are exact:
        # Bannai-Miezaki (Z^2 never a 4-design, A_2 never a 6-design) and
        # Venkov (E8's norm-2m shell is an 8-design iff tau(m) = 0, and
        # tau(1), tau(2), tau(3) = 1, -24, 252)
        exact = {"zn:2": (25, 3), "an:2": (25, 5), "e8": (6, 7)}
        at_least = {"dn:4": (8, 5), "zn:3": (8, 3), "zn:5": (4, 3), "dn:5": (6, 3),
                    "dn:8": (4, 3), "an:3": (6, 3), "an:4": (4, 3)}
        nonempty = {}
        for name, (kmax, t) in {**exact, **at_least}.items():
            nonempty[name] = []
            for k, S in enumerate_shells(builtin(name), kmax).items():
                if len(S):
                    nonempty[name].append(k)
                    strength = design_strength(pair_distribution(S)).strength
                    assert strength == t if name in exact else strength >= t, (name, k, strength)
        assert nonempty["an:2"] == [2, 6, 8, 14, 18, 24]
        assert nonempty["e8"] == [2, 4, 6]

    def test_capped_at_t_max(self):
        S = enumerate_shell(builtin("zn:2"), 1)
        report = design_strength(pair_distribution(S), t_max=1)
        assert report.strength == 1
        assert report.capped



class TestAntipodalBound:
    def test_e8_chain(self, e8_shell):
        # s = 2k distinct values, and the count meets the shell bound
        s = len(spectrum(pair_distribution(e8_shell)).values)
        assert s == 4
        assert len(e8_shell.vectors) <= shell_bound(8, 2)

    @pytest.mark.parametrize("name,k", [("zn:4", 1), ("dn:4", 2), ("an:3", 2), ("zn:3", 3)])
    def test_chain_on_catalog(self, name, k):
        S = enumerate_shell(builtin(name), k)
        if len(S.vectors) == 0:
            return
        s = len(spectrum(pair_distribution(S)).values)
        n = S.lattice.n
        assert s <= 2 * k
        assert len(S.vectors) <= shell_bound(n, k)


class TestAnnihilator:
    def test_e8(self, e8_shell):
        sp = spectrum(pair_distribution(e8_shell))
        F = annihilator(sp)
        assert F(1) == 1
        for a in sp.values:
            assert F(a) == 0
        assert F.degree == 4

    def test_rejects_value_one(self):
        from shellbound.design import Spectrum

        with pytest.raises(ValueError):
            annihilator(Spectrum(k=2, values=(Fraction(0), Fraction(1))))

    def test_identity_cubic(self):
        S = enumerate_shell(builtin("zn:3"), 1)
        assert annihilator_identity_holds(3, spectrum(pair_distribution(S)))

    def test_identity_e8(self, e8_shell):
        assert annihilator_identity_holds(8, spectrum(pair_distribution(e8_shell)))

    def test_identity_fails_off_equality(self):
        # hand check: left side has leading coefficient 80/3, right side 32
        S = enumerate_shell(builtin("dn:4"), 2)
        assert not annihilator_identity_holds(4, spectrum(pair_distribution(S)))
