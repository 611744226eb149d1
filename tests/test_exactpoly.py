import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shellbound.exactpoly import (
    Poly,
    binom,
    cumulative_gegenbauer,
    cumulative_gegenbauer_closed,
    fisher_bound,
    gegenbauer,
    harmonic_dim,
    shell_bound,
)

HALF = Fraction(1, 2)


class TestBinom:
    def test_values(self):
        assert binom(10, 3) == 120
        assert binom(30, 7) == 2035800
        assert binom(5, 0) == 1
        assert binom(5, 5) == 1

    def test_zero_above_diagonal(self):
        assert binom(3, 5) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            binom(-1, 2)
        with pytest.raises(ValueError):
            binom(4, -2)


class TestPoly:
    def test_trailing_zeros_trimmed(self):
        assert Poly((1, 2, 0, 0)) == Poly((1, 2))
        assert Poly((0,)).degree is None
        assert Poly((0, 0, 3)).degree == 2

    def test_evaluation_is_exact(self):
        p = Poly((1, -2, 3))
        assert p(HALF) == 1 - 2 * HALF + 3 * HALF**2 == Fraction(3, 4)
        assert p(0) == 1

    def test_ring_operations(self):
        p = Poly((1, 1))
        q = Poly((-1, 1))
        assert p * q == Poly((-1, 0, 1))
        assert p + q == Poly((0, 2))
        assert p - p == Poly(())
        assert 3 * p == Poly((3, 3)) == p * 3
        assert -p == Poly((-1, -1))

    def test_coefficients_become_fractions(self):
        p = Poly((1, 2))
        assert all(isinstance(c, Fraction) for c in p.coeffs)

    def test_hash_consistent_with_eq(self):
        assert hash(Poly((0, 1, 0))) == hash(Poly((0, 1)))

    def test_integer_numerators_over_one_denominator(self):
        p = Poly((Fraction(1, 2), Fraction(-2, 3), 0))
        assert (p.num, p.den) == ((3, -4), 6)
        assert Poly((4, 6), 2) == Poly((2, 3))
        assert (Poly().num, Poly().den) == ((), 1)
        assert Poly()(Fraction(1, 3)) == 0
        assert repr(p) == "Poly(1/2*u^0 + -2/3*u^1)"


# A plain list-of-Fraction reference for Poly: coefficient i of u**i, trimmed.

def _ref_trim(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _ref_add(a, b):
    n = max(len(a), len(b))
    return _ref_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def _ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_trim(out)


def _ref_eval(a, u):
    return sum((c * u**i for i, c in enumerate(a)), Fraction(0))


# The Chebyshev and Gegenbauer three-term recurrences on plain Fraction
# lists: an independent reference for gegenbauer's explicit integer sum.

def _ref_chebyshev(i):
    # first-kind Chebyshev: T_i = 2u T_{i-1} - T_{i-2}
    prev, cur = [Fraction(1)], [Fraction(0), Fraction(1)]
    for _ in range(i):
        prev, cur = cur, _ref_add(_ref_mul([0, 2], cur), [-c for c in prev])
    return prev


def _ref_classical_gegenbauer(n, i):
    # C_i^lam with lam = (n-2)/2 > 0:
    # j C_j = 2(j-1+lam) u C_{j-1} - (j-2+2 lam) C_{j-2}
    lam = Fraction(n - 2, 2)
    prev, cur = [Fraction(1)], [Fraction(0), 2 * lam]
    for j in range(1, i):
        a, b = 2 * (j + lam) / (j + 1), (j - 1 + 2 * lam) / (j + 1)
        prev, cur = cur, _ref_add(_ref_mul([0, a], cur), [-b * c for c in prev])
    return prev if i == 0 else cur


def _ref_gegenbauer(n, i):
    # rescaled so the value at 1 is harmonic_dim(n, i); n = 2 is 2 T_i
    if i == 0:
        return [Fraction(1)]
    if n == 2:
        return [2 * c for c in _ref_chebyshev(i)]
    c = _ref_classical_gegenbauer(n, i)
    scale = harmonic_dim(n, i) / _ref_eval(c, Fraction(1))
    return [scale * x for x in c]


_rationals = st.fractions(max_denominator=60).filter(lambda x: abs(x) < 1000)
_coeff_lists = st.lists(st.one_of(_rationals, st.just(Fraction(0))), max_size=7)


class TestPolyAgainstFractionReference:
    @settings(max_examples=200, deadline=None)
    @given(_coeff_lists, _coeff_lists, _rationals, _rationals)
    def test_ring_evaluation_and_equality(self, a, b, s, u):
        P, Q = Poly(a), Poly(b)
        ra, rb = _ref_trim(a), _ref_trim(b)
        assert P.degree == (len(ra) - 1 if ra else None)
        cases = [
            (P, ra),
            (P + Q, _ref_add(ra, rb)),
            (P - Q, _ref_add(ra, [-c for c in rb])),
            (-P, [-c for c in ra]),
            (P * Q, _ref_mul(ra, rb)),
            (P * s, _ref_trim([c * s for c in ra])),
            (s * P, _ref_trim([c * s for c in ra])),
        ]
        for R, ref in cases:
            assert all(isinstance(c, Fraction) for c in R.coeffs)
            assert list(R.coeffs) == ref
            # lowest terms, so equal polynomials compare and hash equal
            assert R.den > 0 and math.gcd(R.den, *R.num) == 1
            assert R == Poly(ref) and hash(R) == hash(Poly(ref))
            assert R(u) == _ref_eval(ref, u) and isinstance(R(u), Fraction)
        assert (P == Q) == (ra == rb)
        assert P == Poly(list(a) + [0, 0]) and hash(P) == hash(Poly(list(a) + [0, 0]))


def _ref_sum_at(P, weights, q):
    # from the Fraction coefficients alone, with no Horner step
    return sum(
        (c * sum((a * Fraction(p, q) ** i for i, a in enumerate(P.coeffs)), Fraction(0))
         for p, c in weights.items()),
        Fraction(0),
    )


class TestSumAt:
    @settings(max_examples=200, deadline=None)
    @given(
        _coeff_lists,
        st.dictionaries(st.integers(-40, 40), st.integers(-6, 6), max_size=6),
        st.integers(1, 30),
    )
    def test_matches_coefficient_reference(self, a, weights, q):
        P = Poly(a)
        value = P.sum_at(weights, q)
        assert isinstance(value, Fraction)
        assert value == _ref_sum_at(P, weights, q)

    @pytest.mark.parametrize("weights", [{}, {3: 0}, {-2: 5, 0: 0, 7: -1}])
    @pytest.mark.parametrize("q", [1, 4])
    def test_edge_cases(self, weights, q):
        P = Poly((Fraction(-1, 3), 2, 0, Fraction(5, 7)))
        assert P.sum_at(weights, q) == _ref_sum_at(P, weights, q)
        assert Poly().sum_at(weights, q) == 0
        assert P.sum_at({}, q) == 0

    @settings(max_examples=200, deadline=None)
    @given(_coeff_lists, _rationals)
    def test_call_is_the_one_point_sum(self, a, u):
        P = Poly(a)
        assert P(u) == P.sum_at({u.numerator: 1}, u.denominator)


class TestHarmonicDim:
    def test_values(self):
        assert harmonic_dim(8, 3) == 112
        assert harmonic_dim(3, 2) == 5
        assert harmonic_dim(24, 2) == 299

    @pytest.mark.parametrize("n", range(2, 12))
    def test_low_degrees(self, n):
        assert harmonic_dim(n, 0) == 1
        assert harmonic_dim(n, 1) == n

    @pytest.mark.parametrize("i", range(1, 9))
    def test_circle_harmonics_all_dimension_two(self, i):
        assert harmonic_dim(2, i) == 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            harmonic_dim(1, 2)
        with pytest.raises(ValueError):
            harmonic_dim(4, -1)


class TestGegenbauer:
    def test_degree_zero_and_one(self):
        for n in (2, 3, 8):
            assert gegenbauer(n, 0) == Poly((1,))
            assert gegenbauer(n, 1) == Poly((0, n))

    def test_degree_three_dimension_eight(self):
        q = gegenbauer(8, 3)
        assert q == Poly((0, -48, 0, 160))
        assert q(HALF) == -4
        assert q(1) == 112

    def test_dimension_three_legendre_multiple(self):
        # degree-2 kernel in dimension 3 is 5 * (3u^2 - 1)/2
        assert gegenbauer(3, 2) == Poly((Fraction(-5, 2), 0, Fraction(15, 2)))

    def test_dimension_two_doubles_chebyshev(self):
        assert gegenbauer(2, 3) == Poly((0, -6, 0, 8))
        assert gegenbauer(2, 5)(1) == 2

    @pytest.mark.parametrize("n", range(2, 31))
    def test_explicit_sum_formula(self, n):
        # Q_i = (lam+i) sum_k (-1)^k (lam+1)_(i-k-1) / (k! (i-2k)!) (2u)^(i-2k)
        # with lam = (n-2)/2: (1 + i/lam) C_i^lam written without the 1/lam,
        # so lam = 0 gives twice the Chebyshev polynomial
        lam = Fraction(n - 2, 2)

        def rising(x, m):
            return math.prod((x + j for j in range(m)), start=Fraction(1))

        for i in range(1, 13):
            coeffs = [Fraction(0)] * (i + 1)
            for k in range(i // 2 + 1):
                term = rising(lam + 1, i - k - 1) / (math.factorial(k) * math.factorial(i - 2 * k))
                coeffs[i - 2 * k] = (-1) ** k * (lam + i) * term * 2 ** (i - 2 * k)
            assert gegenbauer(n, i) == Poly(coeffs), (n, i)
        assert gegenbauer(n, 0) == Poly((1,))

    @pytest.mark.parametrize("n", range(2, 41))
    def test_matches_three_term_recurrence(self, n):
        for i in range(16):
            assert list(gegenbauer(n, i).coeffs) == _ref_gegenbauer(n, i), (n, i)

    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("i", range(0, 11))
    def test_normalized_at_one(self, n, i):
        assert gegenbauer(n, i)(1) == harmonic_dim(n, i)

    @pytest.mark.parametrize("n", range(2, 10))
    @pytest.mark.parametrize("i", range(0, 9))
    def test_parity(self, n, i):
        q = gegenbauer(n, i)
        assert all(c == 0 for j, c in enumerate(q.coeffs) if (j - i) % 2)

    @pytest.mark.parametrize("n", (2, 3, 5, 8, 24))
    @pytest.mark.parametrize("i", range(0, 9))
    def test_bounded_by_value_at_one(self, n, i):
        q = gegenbauer(n, i)
        peak = q(1)
        for j in range(-4, 5):
            assert abs(q(Fraction(j, 4))) <= peak


class TestCumulative:
    def test_degree_three_dimension_eight(self):
        c = cumulative_gegenbauer(8, 3)
        assert c == Poly((0, -40, 0, 160))
        assert c(1) == 120

    @pytest.mark.parametrize("n", range(2, 17))
    @pytest.mark.parametrize("m", (1, 3, 5))
    def test_closed_form_agrees(self, n, m):
        assert cumulative_gegenbauer_closed(n, m) == cumulative_gegenbauer(n, m)

    @pytest.mark.parametrize("n", range(2, 17))
    @pytest.mark.parametrize("m", range(0, 13))
    def test_value_at_one(self, n, m):
        assert cumulative_gegenbauer(n, m)(1) == binom(n + m - 1, m)

    @pytest.mark.parametrize("n", (2, 4, 9))
    @pytest.mark.parametrize("m", range(2, 9))
    def test_recurrence_step(self, n, m):
        assert cumulative_gegenbauer(n, m) == cumulative_gegenbauer(n, m - 2) + gegenbauer(n, m)

    def test_one_pass_equals_sum_of_kernels(self):
        # reference: the per-degree kernels added through Poly.__add__
        for n in range(2, 61):
            for m in range(0, 16):
                ref = Poly()
                for j in range(m, -1, -2):
                    ref = ref + gegenbauer(n, j)
                assert cumulative_gegenbauer(n, m) == ref, (n, m)

    def test_leaves_no_kernel_in_the_gegenbauer_cache(self):
        from shellbound.filter import filter_search

        before = gegenbauer.cache_info().currsize
        filter_search(3, 200)
        assert gegenbauer.cache_info().currsize == before

    def test_closed_form_only_small_odd(self):
        with pytest.raises(ValueError):
            cumulative_gegenbauer_closed(4, 7)
        with pytest.raises(ValueError):
            cumulative_gegenbauer_closed(4, 2)


class TestFisherBound:
    def test_values(self):
        assert fisher_bound(8, 7) == 240
        assert fisher_bound(24, 11) == 196560
        assert fisher_bound(2, 3) == 4
        assert fisher_bound(2, 5) == 6
        assert fisher_bound(4, 5) == 20
        assert fisher_bound(3, 2) == 4

    @pytest.mark.parametrize("n", range(2, 26))
    @pytest.mark.parametrize("k", range(1, 7))
    def test_odd_case_matches_shell_bound(self, n, k):
        assert fisher_bound(n, 4 * k - 1) == shell_bound(n, k)


class TestShellBound:
    def test_values(self):
        assert shell_bound(8, 2) == 240
        assert shell_bound(24, 4) == 4071600
        assert shell_bound(2, 3) == 12
        assert shell_bound(4, 2) == 40

    @pytest.mark.parametrize("k", range(1, 11))
    def test_rank_one_always_two(self, k):
        assert shell_bound(1, k) == 2

    def test_monotone(self):
        for n in range(1, 20):
            assert shell_bound(n, 3) <= shell_bound(n + 1, 3)
        for k in range(1, 10):
            assert shell_bound(5, k) <= shell_bound(5, k + 1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            shell_bound(0, 1)
        with pytest.raises(ValueError):
            shell_bound(3, 0)
