"""Integrality root filters on the odd cumulative Gegenbauer sums, the circle
exclusion, and the table of strengths a tight spherical design can have.

A rank-n lattice whose norm-k shell meets the shell bound forces the degree
2k-1 cumulative Gegenbauer sum to vanish on {j/k : 0 <= j <= k-1}; these
filters test that vanishing exactly and solve the small cases in closed form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, NamedTuple

from .exactpoly import cumulative_gegenbauer
from .errors import CertificationError, PreconditionError


class FilterReport(NamedTuple):
    passes: bool
    evaluations: Dict[Fraction, Fraction]


class Norm3Contradiction(NamedTuple):
    n_from_sum: int
    product_required: Fraction
    product_actual: Fraction
    consistent: bool


def _odd_kernel_sum(n: int, k: int):
    """The degree 2k-1 cumulative Gegenbauer sum, certified odd."""
    poly = cumulative_gegenbauer(n, 2 * k - 1)
    if any(poly.num[0::2]):
        raise CertificationError(f"cumulative sum of degree {2 * k - 1} at n={n} is not odd")
    return poly


def root_filter(n: int, k: int) -> FilterReport:
    """Evaluate the degree 2k-1 cumulative Gegenbauer sum at j/k, 0 <= j < k.

    The polynomial is odd with 2k-1 candidate roots, so all evaluations being
    zero is equivalent to the root set being exactly {0, +-1/k, ..., +-(k-1)/k}.
    """
    if n < 2:
        raise PreconditionError("root_filter requires dimension n >= 2")
    if k < 1:
        raise PreconditionError("root_filter requires norm k >= 1")
    poly = _odd_kernel_sum(n, k)
    evaluations = {Fraction(j, k): poly(Fraction(j, k)) for j in range(k)}
    return FilterReport(passes=all(v == 0 for v in evaluations.values()), evaluations=evaluations)


def _root_values(k: int, n_max: int):
    """For n = 2..n_max, the values P(j/k), 0 <= j < k, of the degree m = 2k-1
    cumulative Gegenbauer sum P in dimension n, as integers: all scaled by
    one positive factor that depends on k alone.

    Every coefficient of P is a polynomial in n of degree at most m over a
    denominator that does not depend on n (see exactpoly._kernel_sum), so
    at fixed j/k so is the value: the seeds n = 2..2k+1, evaluated directly,
    fix it, and forward differences continue it exactly.  The oddness
    certificate carries over: an even coefficient that vanishes at the 2k
    seeds vanishes for every n."""
    m = 2 * k - 1
    seeds = [[_odd_kernel_sum(n, k).sum_at({j: 1}, k) for j in range(k)]
             for n in range(2, min(n_max, m + 2) + 1)]
    # the seeds' common denominator makes every value an integer
    scale = math.lcm(*(v.denominator for values in seeds for v in values))
    seeds = [[int(v * scale) for v in values] for values in seeds]
    yield from seeds
    diagonals = []  # per j, the last entry of each row of the seeds' difference table
    for row in map(list, zip(*seeds)):
        diagonals.append([])
        while row:
            diagonals[-1].append(row[-1])
            row = [b - a for a, b in zip(row, row[1:])]
    for _ in range(m + 3, n_max + 1):
        for d in diagonals:
            for i in range(m - 1, -1, -1):
                d[i] += d[i + 1]
        yield [d[0] for d in diagonals]


def filter_search(k: int, n_max: int) -> List[int]:
    """All dimensions n in [2, n_max] passing the root filter for norm k."""
    if k < 1:
        raise PreconditionError("filter_search requires norm k >= 1")
    if n_max < 2:
        raise PreconditionError("filter_search requires n_max >= 2")
    return [n for n, values in enumerate(_root_values(k, n_max), 2) if not any(values)]


def norm2_filter_dimension() -> int:
    """The unique dimension passing the norm-2 filter, solved exactly.

    The degree-3 sum is (n(n+2)/6) u ((n+4)u^2 - 3), so its positive root
    satisfies u^2 = 3/(n+4); requiring u = 1/2 pins n.
    """
    root_sq = Fraction(1, 2) ** 2
    n = Fraction(3) / root_sq - 4
    if n.denominator != 1:
        raise CertificationError(f"norm-2 dimension solve gave {n}, not an integer")
    return int(n)


def norm3_filter_contradiction() -> Norm3Contradiction:
    """Exact Vieta mismatch showing no dimension passes the norm-3 filter.

    The degree-5 sum factors through the quartic (n+6)(n+8)w^2 - 10(n+6)w + 15
    in w = u^2, whose roots would have to be {1/9, 4/9}.  Matching the root
    sum forces one dimension; the product then disagrees.
    """
    required_roots = (Fraction(1, 9), Fraction(4, 9))
    root_sum = sum(required_roots)
    # Vieta sum of the quartic's roots is 10/(n+8)
    n = Fraction(10) / root_sum - 8
    if n.denominator != 1:
        raise CertificationError(f"norm-3 dimension solve gave {n}, not an integer")
    n = int(n)
    product_required = required_roots[0] * required_roots[1]
    product_actual = Fraction(15, (n + 6) * (n + 8))
    return Norm3Contradiction(
        n_from_sum=n,
        product_required=product_required,
        product_actual=product_actual,
        consistent=product_actual == product_required,
    )


def circle_exclusion(k: int) -> bool:
    """Certify that cos(pi/(2k)) lies strictly between (k-1)/k and 1.

    A rank-2 equality shell would be a regular 4k-gon whose adjacent inner
    product is cos(pi/(2k)); that value escaping {-1} union (1/k)Z rules the
    case out.  Uses cos x > 1 - x^2/2 and the rational bound pi^2 < 987/100,
    so the whole chain is exact.
    """
    if k < 2:
        raise PreconditionError("circle_exclusion requires k >= 2")
    # 1 - 987/(800 k^2) > (k-1)/k, times 800 k^3 > 0, in integers; upper
    # strictness is immediate: the angle pi/(2k) is in (0, pi/2)
    return 800 * k**3 - 987 * k > 800 * k * k * (k - 1)


def allowed_tight_strengths() -> frozenset:
    """Strengths t >= 4 that a tight spherical t-design in dimension >= 3 can
    have (classification constant; strengths 15 and up are impossible)."""
    return frozenset({4, 5, 7, 11})
