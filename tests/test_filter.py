from fractions import Fraction

import pytest

from shellbound import filter as filter_module
from shellbound.exactpoly import Poly, cumulative_gegenbauer
from shellbound.filter import (
    allowed_tight_strengths,
    circle_exclusion,
    filter_search,
    norm2_filter_dimension,
    norm3_filter_contradiction,
    root_filter,
)
from shellbound.lattice import CertificationError


class TestRootFilter:
    def test_dimension_eight_passes_norm_two(self):
        report = root_filter(8, 2)
        assert report.passes
        assert report.evaluations == {Fraction(0): Fraction(0), Fraction(1, 2): Fraction(0)}

    def test_dimension_nine_fails_norm_two(self):
        report = root_filter(9, 2)
        assert not report.passes
        assert report.evaluations[Fraction(1, 2)] != 0
        assert report.evaluations[Fraction(0)] == 0

    def test_norm_three_fails_everywhere_small(self):
        for n in range(2, 30):
            assert not root_filter(n, 3).passes

    def test_norm_one_is_vacuous(self):
        # the only required root is 0 and the odd polynomial always has it
        for n in range(2, 12):
            assert root_filter(n, 1).passes

    @pytest.mark.parametrize("n", range(2, 20))
    @pytest.mark.parametrize("k", range(1, 6))
    def test_kernel_sum_is_odd(self, n, k):
        poly = cumulative_gegenbauer(n, 2 * k - 1)
        assert all(c == 0 for c in poly.coeffs[0::2])

    def test_non_odd_sum_fails_its_certificate(self, monkeypatch):
        monkeypatch.setattr(filter_module, "cumulative_gegenbauer", lambda n, m: Poly((1, 1)))
        with pytest.raises(CertificationError):
            root_filter(8, 2)
        with pytest.raises(CertificationError):
            filter_search(2, 10)

    def test_evaluations_cover_required_roots(self):
        report = root_filter(5, 3)
        assert set(report.evaluations) == {Fraction(0), Fraction(1, 3), Fraction(2, 3)}

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            root_filter(1, 2)
        with pytest.raises(ValueError):
            root_filter(4, 0)


class TestFilterSearch:
    def test_norm_two_forces_dimension_eight(self):
        assert filter_search(2, 500) == [8]

    def test_norm_three_is_empty(self):
        assert filter_search(3, 500) == []

    def test_norms_four_and_five_empty(self):
        assert filter_search(4, 60) == []
        assert filter_search(5, 60) == []

    def test_norm_one_passes_everywhere(self):
        assert filter_search(1, 10) == list(range(2, 11))

    @pytest.mark.parametrize("k", range(1, 6))
    def test_agrees_with_root_filter(self, k):
        assert filter_search(k, 150) == [n for n in range(2, 151) if root_filter(n, k).passes]

    @pytest.mark.parametrize("k", range(1, 9))
    def test_forward_differences_match_direct_evaluation(self, k):
        # every value past the 2k seeds, not only the passing set: one
        # positive scale for all n and j
        direct = [list(root_filter(n, k).evaluations.values()) for n in range(2, 301)]
        scaled = list(filter_module._root_values(k, 300))
        scale = scaled[-1][-1] / direct[-1][-1] if k > 1 else 1
        assert scale > 0
        assert scaled == [[v * scale for v in values] for values in direct]


class TestClosedFormSolutions:
    def test_norm_two_dimension(self):
        assert norm2_filter_dimension() == 8

    def test_norm_three_contradiction(self):
        c = norm3_filter_contradiction()
        assert c.n_from_sum == 10
        assert c.product_required == Fraction(4, 81)
        assert c.product_actual == Fraction(5, 96)
        assert c.consistent is False


class TestCircleExclusion:
    @pytest.mark.parametrize("k", [2, 3, 5, 10, 100, 1000])
    def test_holds(self, k):
        assert circle_exclusion(k)

    def test_full_sweep(self):
        assert all(circle_exclusion(k) for k in range(2, 1001))

    def test_matches_fraction_chain(self):
        # the chain in Fractions: the reference for the integer form
        for k in range(2, 5001):
            assert circle_exclusion(k) == (1 - Fraction(987, 100) / (8 * k * k) > Fraction(k - 1, k))

    def test_rejects_norm_one(self):
        with pytest.raises(ValueError):
            circle_exclusion(1)


class TestAllowedTightStrengths:
    def test_table(self):
        assert allowed_tight_strengths() == frozenset({4, 5, 7, 11})

    def test_excludes_required_strengths_above_norm_three(self):
        # 4k-1 >= 15 never appears; norm 3 (strength 11) needs its own filter
        assert 4 * 3 - 1 in allowed_tight_strengths()
        for k in range(4, 30):
            assert 4 * k - 1 not in allowed_tight_strengths()
