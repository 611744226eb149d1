"""The acceptance engine behind ``verify-paper``: criteria C01-C12, the
verification context that serves lattices and caches equality reports, and
the C11 reference tally.

The CLI imports this module only when a ``verify-paper`` request runs.  So
``classify``, ``shell`` and the other requests neither compile it nor load
what it loads at the top, and a profiler that rebinds library functions
before the request (``perfbench/tracer.py`` wraps them on their home
modules) has done so before the imports below bind them here.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

from .classify import CONSEQUENCES, E8, NONE, RANK1, ZN, classify
from .design import design_strength, moment_sum, pair_distribution, spectrum
from .exactpoly import (
    binom,
    cumulative_gegenbauer,
    cumulative_gegenbauer_closed,
    fisher_bound,
    gegenbauer,
    shell_bound,
)
from .filter import circle_exclusion, filter_search, norm2_filter_dimension, norm3_filter_contradiction
from .lattice import (
    GramLattice, brute_force_shells, builtin, enumerate_shell, enumerate_shells, shell_count, shell_counts,
)


class CriterionFailure(Exception):
    """A criterion check found a wrong value."""


class SkipCriterion(Exception):
    """A criterion cannot run under the current flags."""


class VerifyContext:
    """Shared state for one verification run: the flags, the lattice overrides
    for negative controls, the names of the lattices served, and the equality
    reports that more than one criterion reads.  No shell is kept here."""

    def __init__(
        self,
        include_slow: bool = False,
        overrides: Optional[Dict[str, GramLattice]] = None,
        verbose: bool = True,
    ):
        self.include_slow = include_slow
        self.overrides = dict(overrides or {})
        self.verbose = verbose
        self.served: set = set()
        self._reports: Dict = {}

    def log(self, message: str) -> None:
        if self.verbose:
            print(message, file=sys.stderr, flush=True)

    def lattice(self, name: str) -> GramLattice:
        self.served.add(name)
        return self.overrides.get(name) or builtin(name)

    def classify(self, name: str, k: int):
        """The equality report of the norm-k shell, computed once for the
        criteria that share it (C02, C03, C09, C12)."""
        key = (name, k)
        if key not in self._reports:
            self._reports[key] = classify(self.lattice(name), k)
        return self._reports[key]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CriterionFailure(message)


def _c01_bounds(ctx: VerifyContext) -> Dict:
    _require(shell_bound(8, 2) == 240, "bound(8,2) != 240")
    _require(shell_bound(24, 4) == 4071600, "bound(24,4) != 4071600")
    _require(shell_bound(2, 3) == 12, "bound(2,3) != 12")
    for k in range(1, 11):
        _require(shell_bound(1, k) == 2, f"bound(1,{k}) != 2")
    return {"bound_8_2": 240, "bound_24_4": 4071600, "bound_2_3": 12, "bound_1_k": 2}


def _c02_cubic_family(ctx: VerifyContext) -> Dict:
    for n in range(2, 25):
        name = f"zn:{n}"
        report = ctx.classify(name, 1)
        count = report.count
        _require(count == 2 * n, f"{name}: norm-1 count {count} != {2 * n}")
        _require(count == shell_bound(n, 1), f"{name}: count misses the bound")
        _require(report.case == ZN, f"{name}: case {report.case} != ZN")
        _require(report.equality, f"{name}: equality flag false")
    return {"dims": [2, 24], "case": ZN}


def _c03_e8(ctx: VerifyContext) -> Dict:
    report = ctx.classify("e8", 2)
    # the count comes first: its reason string is C12's tamper_detected
    _require(report.count == 240, f"norm-2 count {report.count} != 240")
    _require(report.case == E8, f"case {report.case} != E8")
    # the E8 certificate holds the complete spectrum, tightness and identity
    evidence = report.evidence
    _require(evidence["strength"] == 7, f"strength {evidence['strength']} != 7")
    return {
        "count": report.count,
        "spectrum": evidence["spectrum"],
        "strength": evidence["strength"],
        "tight": evidence["tight"],
        "case": report.case,
    }


def _c04_filters(ctx: VerifyContext) -> Dict:
    dims2 = filter_search(2, 500)
    _require(dims2 == [8], f"norm-2 search gave {dims2}, expected [8]")
    dims3 = filter_search(3, 500)
    _require(dims3 == [], f"norm-3 search gave {dims3}, expected []")
    c = norm3_filter_contradiction()
    _require(c.n_from_sum == 10, f"n_from_sum {c.n_from_sum} != 10")
    _require(c.product_required == Fraction(4, 81), "required product wrong")
    _require(c.product_actual == Fraction(5, 96), "actual product wrong")
    _require(c.consistent is False, "norm-3 constraints reported consistent")
    _require(norm2_filter_dimension() == 8, "norm-2 dimension solve != 8")
    return {"search_k2": dims2, "search_k3": dims3, **c._asdict()}


def _c05_closed_forms(ctx: VerifyContext) -> Dict:
    for n in range(2, 17):
        for m in (1, 3, 5):
            _require(
                cumulative_gegenbauer_closed(n, m) == cumulative_gegenbauer(n, m),
                f"closed form differs from sum at n={n}, m={m}",
            )
        for m in range(0, 13):
            value = cumulative_gegenbauer(n, m)(Fraction(1))
            _require(
                value == binom(n + m - 1, m),
                f"cumulative value at 1 wrong for n={n}, m={m}",
            )
    return {"dims": [2, 16], "orders_closed": [1, 3, 5], "orders_value": [0, 12]}


def _c06_circle(ctx: VerifyContext) -> Dict:
    for k in range(2, 1001):
        _require(circle_exclusion(k), f"planar exclusion fails at k={k}")
    return {"k_range": [2, 1000]}


def _c07_rank1(ctx: VerifyContext) -> Dict:
    # no later criterion reads these reports, so none is kept in the context
    for a2 in (1, 2, 4, 9):
        L = ctx.lattice(f"scaledz:{a2}")
        for k in range(1, 41):
            report = classify(L, k)
            m = math.isqrt(k // a2)
            expected = a2 * m * m == k
            _require(
                report.equality == expected,
                f"scaledz:{a2} k={k}: equality {report.equality}, expected {expected}",
            )
            _require(
                report.case == (RANK1 if expected else NONE),
                f"scaledz:{a2} k={k}: case {report.case}",
            )
    return {"scales": [1, 2, 4, 9], "k_range": [1, 40]}


_C08_BUILTINS = [
    "zn:2", "zn:3", "zn:4", "zn:8",
    "an:2", "an:3",
    "dn:4", "dn:8",
    "e8",
    "scaledz:1", "scaledz:2", "scaledz:4", "scaledz:9",
]


def _c08_universal_inequality(ctx: VerifyContext) -> Dict:
    checked = 6 * len(_C08_BUILTINS)
    for name in _C08_BUILTINS:
        L = ctx.lattice(name)
        for k, count in shell_counts(L, 6).items():
            _require(
                count <= shell_bound(L.n, k),
                f"{name} k={k}: count {count} exceeds the bound",
            )
    leech = "skipped (needs --include-slow)"
    if ctx.include_slow:
        count = shell_count(ctx.lattice("leech"), 4)
        _require(count <= shell_bound(24, 4), "leech k=4 exceeds the bound")
        checked += 1
        leech = count
    return {"pairs_checked": checked, "leech_k4": leech}


def _c09_equality_consequences(ctx: VerifyContext) -> Dict:
    for name, k in [(f"zn:{n}", 1) for n in range(2, 11)] + [("e8", 2)]:
        report = ctx.classify(name, k)
        _require(report.equality, f"{name} k={k}: count {report.count} misses the bound {report.bound}")
        for key in CONSEQUENCES:
            _require(report.evidence[key], f"{name} k={k}: {key} fails")
    return {"cubic_dims": [2, 10], "root_lattice": "e8"}


def _c10_leech(ctx: VerifyContext) -> Dict:
    if not ctx.include_slow:
        raise SkipCriterion("needs --include-slow")
    ctx.log("  [C10] enumerating the norm-4 shell in rank 24 ...")
    S = enumerate_shell(ctx.lattice("leech"), 4)
    count = len(S.vectors)
    _require(count == 196560, f"count {count} != 196560")
    _require(count < shell_bound(24, 4), "count does not sit below the bound")
    ctx.log("  [C10] pair distribution over 196560 vectors ...")
    dist = pair_distribution(S)
    sp = spectrum(dist)
    _require(set(dist.counts) == {-4, -2, -1, 0, 1, 2}, f"spectrum {sp.values} unexpected")
    report = design_strength(dist)
    _require(report.strength == 11, f"strength {report.strength} != 11")
    _require(report.tight, "design not tight")
    _require(fisher_bound(24, 11) == 196560, "fisher bound mismatch")
    return {
        "count": count,
        "bound": shell_bound(24, 4),
        "spectrum": sorted(sp.values),
        "strength": report.strength,
        "tight": report.tight,
    }


_C11_BUILTINS = (
    [f"zn:{n}" for n in range(1, 7)]
    + [f"an:{n}" for n in range(1, 7)]
    + [f"dn:{n}" for n in range(2, 7)]
    + [f"scaledz:{q}" for q in (1, 2, 4, 9)]
)


def _inner_tally(S) -> Counter:
    """<y,z> over all N^2 ordered pairs of the shell, diagonal included,
    tallied by value.  Row N-1-i is minus row i (as Shell guarantees), so the
    upper half R holds one vector per +-pair and, with H the tally over
    R x R, the full tally is T(v) = 2 (H(v) + H(-v)).  H is one product of
    object arrays, so every entry is an exact Python int at any magnitude;
    it shares neither product_dtype nor BLAS with the pair kernel it checks.
    Tests pin T to lattice.inner over all N^2 pairs."""
    R = S.vectors[len(S) // 2 :].astype(object)
    H = Counter((R @ (np.array(S.lattice.gram, dtype=object) @ R.T)).ravel().tolist())
    return Counter({v: 2 * (H[v] + H[-v]) for v in H.keys() | {-v for v in H}})


def _c11_oracles(ctx: VerifyContext) -> Dict:
    moment_checks = 0
    for name in _C11_BUILTINS:
        L = ctx.lattice(name)
        slow = brute_force_shells(L, 6)
        for k, fast in enumerate_shells(L, 6).items():
            _require(
                np.array_equal(fast.vectors, slow[k].vectors),
                f"{name} k={k}: tree search and box search disagree",
            )
            size = len(fast.vectors)
            if 0 < size <= 200 and L.n >= 2:
                dist = pair_distribution(fast)
                tally = _inner_tally(fast)
                for i in range(1, 7):
                    # the kernel summed over the tally, not over the pair kernel behind moment_sum
                    _require(
                        moment_sum(dist, i) == gegenbauer(L.n, i).sum_at(tally, k),
                        f"{name} k={k} i={i}: moment mismatch",
                    )
                    moment_checks += 1
    return {"lattices": len(_C11_BUILTINS), "k_range": [1, 6], "moment_checks": moment_checks}


def _tampered_e8() -> GramLattice:
    rows = [list(row) for row in builtin("e8").gram]
    # drop one Dynkin edge: still positive definite, but the shell shrinks
    rows[0][2] = 0
    rows[2][0] = 0
    return GramLattice(rows, name="perturbed-e8")


def _c12_negative_controls(ctx: VerifyContext) -> Dict:
    d4 = ctx.classify("dn:4", 2)
    _require(d4.case == NONE and not d4.equality, "dn:4 at norm 2 should classify NONE")
    _require(d4.count == 24, f"dn:4 norm-2 count {d4.count} != 24")
    _require(d4.count < d4.bound, "dn:4 count does not fall short of the bound")

    z8 = ctx.classify("zn:8", 2)
    _require(z8.case == NONE and not z8.equality, "zn:8 at norm 2 should classify NONE")
    _require(z8.count == 112, f"zn:8 norm-2 count {z8.count} != 112")

    sub = VerifyContext(
        include_slow=False,
        overrides={"e8": _tampered_e8()},
        verbose=False,
    )
    try:
        _c03_e8(sub)
    except CriterionFailure as exc:
        caught = str(exc)
    else:
        raise CriterionFailure("a tampered Gram matrix slipped through the rank-8 criterion")
    return {
        "d4_count": d4.count,
        "d4_bound": d4.bound,
        "z8_count": z8.count,
        "z8_case": z8.case,
        "tamper_detected": caught,
    }


class Criterion(NamedTuple):
    cid: str
    description: str
    run: Callable[[VerifyContext], Dict]


def acceptance_criteria() -> List[Criterion]:
    return [
        Criterion("C01", "bound table values for ranks 8, 24, 2 and rank 1", _c01_bounds),
        Criterion("C02", "cubic lattices saturate the norm-1 bound and classify ZN", _c02_cubic_family),
        Criterion("C03", "rank-8 root lattice saturates the norm-2 bound and certifies E8", _c03_e8),
        Criterion("C04", "integrality filters: norm 2 forces rank 8, norm 3 is contradictory", _c04_filters),
        Criterion("C05", "closed forms match summed kernel polynomials exactly", _c05_closed_forms),
        Criterion("C06", "planar exclusion holds for every norm from 2 to 1000", _c06_circle),
        Criterion("C07", "scaled lines saturate exactly at square multiples of the scale", _c07_rank1),
        Criterion("C08", "every builtin shell count obeys the bound", _c08_universal_inequality),
        Criterion("C09", "equality consequences: spectrum, strength, tightness, identity", _c09_equality_consequences),
        Criterion("C10", "rank-24 norm-4 shell is a tight 11-design of size 196560", _c10_leech),
        Criterion("C11", "tree enumeration matches box search; moments match double sums", _c11_oracles),
        Criterion("C12", "negative controls classify NONE and tampering is caught", _c12_negative_controls),
    ]
