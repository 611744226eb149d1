"""End-to-end classification of shell-count equality: exact count versus the
shell bound, plus the recognition routes that pin down which lattice realizes
an equality (rank 1, the cubic lattice at norm 1, or the rank-8 even
unimodular root lattice at norm 2)."""

from __future__ import annotations

import math
from typing import Dict, NamedTuple

import numpy as np

from .design import (
    annihilator_identity_holds,
    design_strength,
    pair_distribution,
    spectrum,
)
from .errors import CertificationError, PreconditionError
from .exactpoly import shell_bound
from .filter import (
    allowed_tight_strengths,
    circle_exclusion,
    norm3_filter_contradiction,
    root_filter,
)
from .lattice import (
    GramLattice,
    Shell,
    _int_dtype,
    enumerate_shell,
    gram_det,
    gram_products,
    is_even,
    shell_count,
    span_of,
)


RANK1 = "RANK1"
ZN = "ZN"
E8 = "E8"
NONE = "NONE"

# the consequences of equality that classify certifies, by evidence key
CONSEQUENCES = ("spectrum_complete", "strength_at_least_required", "tight", "annihilator_identity")
_CLOSURE_ROWS = 16  # reflection_closure's mirrors per block: 16 x N keys at a time


class EqualityReport(NamedTuple):
    dim: int
    k: int
    count: int
    bound: int
    equality: bool
    case: str
    evidence: Dict


def orthonormal_system(S: Shell):
    """One vector per antipodal pair of a norm-1 shell, verified mutually
    orthogonal; returns those rows when there are n of them, else None."""
    if S.k != 1:
        raise PreconditionError("orthonormal extraction applies to norm-1 shells")
    L = S.lattice
    reps = S.vectors[len(S.vectors) // 2 :]
    if len(reps) != L.n or not np.array_equal(gram_products(reps, L.gram, reps), np.identity(L.n, dtype=np.int64)):
        return None
    return reps


def reflection_closure(S: Shell) -> bool:
    """True when a norm-2 shell is closed under its own root reflections
    s_a(b) = b - <b,a> a."""
    if S.k != 2:
        raise PreconditionError("reflection closure applies to norm-2 shells")
    V = S.vectors
    # |<b,a>| <= 2, so images have coordinates of at most 3 max|v|, where the
    # keys sum_j v_j B**(n-1-j) are injective, linear, and sorted like the rows
    B, n = 6 * int(np.abs(V).max(initial=0)) + 1, S.lattice.n
    dtype = _int_dtype(B**n)
    keys = V.astype(dtype) @ np.array([B ** (n - 1 - j) for j in range(n)], dtype=dtype)
    # s_a = s_-a, so the upper half's mirrors are all of them
    for i in range(len(V) // 2, len(V), _CLOSURE_ROWS):
        # s_a is injective, so s_a(S) = S when every key(b) - <b,a> key(a) is in S
        img = keys - gram_products(V[i : i + _CLOSURE_ROWS], S.lattice.gram, V) * keys[i : i + _CLOSURE_ROWS, None]
        if not (keys[np.searchsorted(keys, img).clip(max=len(V) - 1)] == img).all():
            return False
    return True


def recognize_e8(S: Shell) -> bool:
    """Certificate that a norm-2 shell is the rank-8 even unimodular root
    system: 240 vectors spanning a rank-8 even determinant-1 sublattice that
    is closed under its reflections."""
    if S.k != 2:
        raise PreconditionError("the certificate applies to norm-2 shells")
    return len(S.vectors) == 240 and _certifies_e8(_e8_certificate(S))


def _e8_certificate(S: Shell) -> Dict:
    # recognize_e8's measurements; each lower row negates an upper one, so the upper half spans
    span = span_of(S.vectors[len(S) // 2 :], S.lattice)
    return {
        "span_rank": span.rank,
        "span_det": gram_det(span),
        "span_even": is_even(span),
        "reflection_closure": reflection_closure(S),
    }


def _certifies_e8(ev: Dict) -> bool:
    return ev["span_rank"] == 8 and ev["span_det"] == 1 and ev["span_even"] and ev["reflection_closure"]


def _exclusion_evidence(n: int, k: int) -> Dict:
    # name the mechanism that rules equality out, for auditability
    if n == 1 or k == 1 or (k == 2 and n != 2):
        return {"exclusion": "count"}
    if n == 2:
        return {"exclusion": "circle", "circle_excluded": circle_exclusion(k)}
    if k == 3:
        return {"exclusion": "norm3-filter", **norm3_filter_contradiction()._asdict()}
    return {
        "exclusion": "strength-table",
        "required_strength": 4 * k - 1,
        "allowed_strengths": sorted(allowed_tight_strengths()),
    }


def classify(L: GramLattice, k: int) -> EqualityReport:
    """Full equality classification of the norm-k shell of L.

    Equality cases carry certification evidence: the complete inner-product
    spectrum, strength and tightness, the annihilator identity, and the
    recognition route.  Non-equality reports name the exclusion mechanism.
    Only the routes at norms 1 and 2 in rank n >= 2 read vectors, and there
    the shell has O(n^2) of them; every other shell is counted, not built.
    """
    n = L.n
    S = enumerate_shell(L, k) if n >= 2 and k in (1, 2) else None
    count = shell_count(L, k) if S is None else len(S)
    bound = shell_bound(n, k)
    if count != bound:
        return EqualityReport(n, k, count, bound, False, NONE, _exclusion_evidence(n, k))

    if n == 1:
        q = L.gram[0][0]
        m = math.isqrt(k // q)
        if q * m * m != k:
            raise CertificationError(f"rank-1 equality at k={k} is not {q}*{m}^2")
        return EqualityReport(n, k, count, bound, True, RANK1, {"scale": q, "m": m})
    if k >= 3:
        # impossible for an integral lattice (the norm-3 filter and the
        # strength table exclude every k >= 3); reaching it means a bug
        raise CertificationError(f"equality reported at k={k}, n={n}, which is impossible")

    dist = pair_distribution(S)
    sp = spectrum(dist)
    report = design_strength(dist)
    evidence = {
        "spectrum": sp.values,
        "spectrum_complete": set(dist.counts) == set(range(-k, k)),
        "strength": report.strength,
        "strength_at_least_required": report.strength >= 4 * k - 1,
        "tight": report.tight,
        "annihilator_identity": annihilator_identity_holds(n, sp),
    }
    consequences_ok = all(evidence[key] for key in CONSEQUENCES)

    if k == 1:
        ortho = orthonormal_system(S)
        if ortho is None or not consequences_ok:
            raise CertificationError("norm-1 equality failed its certification; this is a bug")
        evidence["recognition"] = "orthonormal-system"
        evidence["orthonormal_count"] = len(ortho)
        case = ZN
    else:
        fr = root_filter(n, 2)
        evidence["root_filter_passes"] = fr.passes
        evidence.update(_e8_certificate(S))
        evidence["recognition"] = "e8-certificate"
        # equality at n = 8, k = 2 means 240 vectors, so this is all of recognize_e8's test
        if not (fr.passes and n == 8 and _certifies_e8(evidence) and consequences_ok):
            raise CertificationError("norm-2 equality failed its certification; this is a bug")
        case = E8

    return EqualityReport(n, k, count, bound, True, case, evidence)
