"""Exact rational polynomials, the Gegenbauer family, and counting bounds.

A polynomial is a tuple of integer numerators over one common denominator,
so its ring operations and evaluation run on Python ints with one gcd each;
values come back as fractions.Fraction.  A kernel sum over many points
(Poly.sum_at) divides once; a cumulative Gegenbauer sum is one pass over one
denominator.  Every identity is exact; this module never touches floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import Iterable, Mapping, Optional, Union

from .errors import PreconditionError

Scalar = Union[int, Fraction]


def binom(a: int, b: int) -> int:
    """Binomial coefficient a choose b, with the convention binom(a, b) = 0 for b > a."""
    if a < 0 or b < 0:
        raise PreconditionError("binom expects non-negative arguments")
    if b > a:
        return 0
    return math.comb(a, b)


class Poly:
    """Dense univariate polynomial with exact rational coefficients, held as
    integer numerators over one positive common denominator.

    num[i] / den is the coefficient of u**i, in lowest terms (the gcd of den
    and every numerator is 1), with trailing zeros trimmed.  coeffs gives the
    same coefficients as a tuple of Fractions.  The zero polynomial has empty
    num, den 1 and degree None (no -1 sentinel).
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable[Scalar] = (), den: Optional[int] = None):
        # with den given, coeffs are integer numerators over den > 0
        num = list(coeffs)
        if den is None:
            den = math.lcm(*(c.denominator for c in num))
            num = [c.numerator * (den // c.denominator) for c in num]
        while num and num[-1] == 0:
            num.pop()
        g = math.gcd(den, *num)
        self.num = tuple(x // g for x in num)
        self.den = den // g

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(x, self.den) for x in self.num)

    @property
    def degree(self):
        return len(self.num) - 1 if self.num else None

    def __call__(self, u: Scalar) -> Fraction:
        return self.sum_at({u.numerator: 1}, u.denominator)

    def sum_at(self, weights: Mapping[int, int], q: int) -> Fraction:
        """Sum of c * P(p/q) over weights {p: c}, q != 0: one homogeneous Horner
        integer sum(num[i] p**i q**(d-i)) per point, and one division."""
        total = 0
        for p, c in weights.items():
            acc, qpow = 0, 1
            for x in reversed(self.num):
                acc, qpow = acc * p + x * qpow, qpow * q
            total += c * acc
        return Fraction(total * q, self.den * q ** len(self.num))  # q**d, also at d = -1

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other: "Poly") -> "Poly":
        g = math.gcd(self.den, other.den)
        fa, fb = other.den // g, self.den // g
        return Poly(
            [x * fa + y * fb for x, y in zip_longest(self.num, other.num, fillvalue=0)],
            self.den * fa,
        )

    def __neg__(self) -> "Poly":
        return Poly([-x for x in self.num], self.den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            a, b = self.num, other.num
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return Poly(out, self.den * other.den)
        return Poly([x * other.numerator for x in self.num], self.den * other.denominator)

    __rmul__ = __mul__

    def __repr__(self):
        if not self.num:
            return "Poly(0)"
        terms = [f"{c}*u^{i}" for i, c in enumerate(self.coeffs) if c != 0]
        return "Poly(" + " + ".join(terms) + ")"


def harmonic_dim(n: int, i: int) -> int:
    """Dimension of the space of degree-i harmonic polynomials on the (n-1)-sphere."""
    if n < 2:
        raise PreconditionError("harmonic_dim requires dimension n >= 2")
    if i < 0:
        raise PreconditionError("degree must be non-negative")
    second = binom(n + i - 3, i - 2) if i >= 2 else 0
    return binom(n + i - 1, i) - second


def _kernel_sum(n: int, degrees: range) -> tuple:
    """Numerators and denominator of the sum of the Gegenbauer kernels of the
    given degrees, one parity, highest m first.  In degree i the coefficient
    of u^(i-2j) is (-1)^j (n-2+2i) prod_{t<i-j-1} (n+2t) / (2^j j! (i-2j)!),
    an integer over 2^h h! i! (h = i//2), so over m's 2^h h! m!.  It has no
    1/lam, so n = 2 (lam = 0) gives twice the Chebyshev polynomial T_i."""
    m = degrees[0]
    den = 2 ** (m // 2) * math.factorial(m // 2) * math.factorial(m)
    num = [0] * (m + 1)
    for i in degrees:
        for j in range(i // 2 + 1):
            # Q_0 = 1 has neither factor
            lead = (n - 2 + 2 * i) * math.prod(range(n, n + 2 * (i - j - 1), 2)) if i else 1
            scale = den // (2**j * math.factorial(j) * math.factorial(i - 2 * j))
            num[i - 2 * j] += (-1) ** j * lead * scale
    return num, den


@lru_cache(maxsize=None)
def gegenbauer(n: int, i: int) -> Poly:
    """Degree-i Gegenbauer polynomial for the (n-1)-sphere, normalized so the
    value at 1 is harmonic_dim(n, i): Q_i = (lam+i)/lam C_i^lam with
    lam = (n-2)/2, from the explicit integer sum of _kernel_sum."""
    if n < 2:
        raise PreconditionError("gegenbauer requires dimension n >= 2")
    if i < 0:
        raise PreconditionError("degree must be non-negative")
    return Poly(*_kernel_sum(n, range(i, i + 1)))


def cumulative_gegenbauer(n: int, m: int) -> Poly:
    """Sum of the degree-m Gegenbauer polynomial and all lower degrees of the
    same parity, down to degree 0 or 1, as one Poly over degree m's
    denominator: no per-degree kernel is built or cached."""
    if n < 2:
        raise PreconditionError("cumulative_gegenbauer requires dimension n >= 2")
    if m < 0:
        raise PreconditionError("degree must be non-negative")
    return Poly(*_kernel_sum(n, range(m, -1, -2)))


def cumulative_gegenbauer_closed(n: int, m: int) -> Poly:
    """Closed forms of the cumulative sums for m in {1, 3, 5}."""
    if n < 2:
        raise PreconditionError("cumulative_gegenbauer_closed requires dimension n >= 2")
    if m == 1:
        return Poly((0, n))
    if m == 3:
        c = Fraction(n * (n + 2), 6)
        return Poly((0, -3 * c, 0, (n + 4) * c))
    if m == 5:
        c = Fraction(n * (n + 2) * (n + 4), 120)
        return Poly((0, 15 * c, 0, -10 * (n + 6) * c, 0, (n + 6) * (n + 8) * c))
    raise PreconditionError("closed form available only for m in {1, 3, 5}")


def fisher_bound(n: int, t: int) -> int:
    """Minimum size of a spherical t-design on the (n-1)-sphere."""
    if n < 2:
        raise PreconditionError("fisher_bound requires dimension n >= 2")
    if t < 0:
        raise PreconditionError("strength must be non-negative")
    e = t // 2
    if t % 2 == 0:
        second = binom(n + e - 2, e - 1) if e >= 1 else 0
        return binom(n + e - 1, e) + second
    return 2 * binom(n + e - 1, e)


def shell_bound(n: int, k: int) -> int:
    """Upper bound 2*binom(n+2k-2, 2k-1) on the number of lattice vectors of
    squared norm k in an integral lattice of rank n."""
    if n < 1:
        raise PreconditionError("shell_bound requires dimension n >= 1")
    if k < 1:
        raise PreconditionError("shell_bound requires norm k >= 1")
    return 2 * binom(n + 2 * k - 2, 2 * k - 1)
