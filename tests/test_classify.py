import importlib
import math
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shellbound.classify import (
    E8,
    NONE,
    RANK1,
    ZN,
    classify,
    orthonormal_system,
    recognize_e8,
    reflection_closure,
)
from shellbound import verify
from shellbound.errors import PreconditionError
from shellbound.design import design_strength, pair_distribution
from shellbound.lattice import (
    _E8_EDGES,
    GramLattice,
    Shell,
    _cartan,
    builtin,
    enumerate_shell,
    enumerate_shells,
    gram_det,
    hermite_normal_form,
    inner,
    span_of,
)


@pytest.fixture(scope="module")
def e8_shell():
    return enumerate_shell(builtin("e8"), 2)


class TestCheckEquality:
    def test_triples(self):
        # classify's exact (count, bound, equality) triple
        for name, k, triple in [
            ("e8", 2, (240, 240, True)),
            ("dn:4", 2, (24, 40, False)),
            ("zn:2", 1, (4, 4, True)),
            ("zn:2", 3, (0, 12, False)),
        ]:
            report = classify(builtin(name), k)
            assert (report.count, report.bound, report.equality) == triple


@pytest.fixture(scope="module", params=[6, 7], ids=["e6", "e7"])
def exceptional(request):
    """E6 or E7: the Cartan submatrix of the E8 diagram on its first n nodes."""
    n = request.param
    return n, GramLattice(_cartan(n, [e for e in _E8_EDGES if max(e) < n]), name=f"e{n}")


class TestExceptionalSublattices:
    # (count, bound) at norms 2 and 4; every one of these shells is a 5-design
    COUNTS = {6: {2: (72, 112), 4: (270, 1584)}, 7: {2: (126, 168), 4: (756, 3432)}}

    @pytest.mark.parametrize("k, exclusion", [(2, "count"), (4, "strength-table")])
    def test_counts_strength_and_exclusion(self, exceptional, k, exclusion):
        n, L = exceptional
        S = enumerate_shell(L, k)
        assert design_strength(pair_distribution(S)).strength == 5
        report = classify(L, k)
        assert (report.count, report.bound) == self.COUNTS[n][k]
        assert report.case == NONE and not report.equality
        assert report.evidence["exclusion"] == exclusion


@pytest.fixture(scope="module")
def bw16():
    """The Barnes-Wall lattice BW16: the span of the first-order Reed-Muller
    codewords RM(1,4) as 0/1 vectors, 2e_i +- 2e_j and 4e_i, under x.y/2."""
    points = list(product((0, 1), repeat=4))
    rows = [[(a0 + sum(a * x for a, x in zip(av, p))) % 2 for p in points] for a0 in (0, 1) for av in points]
    e = [[int(i == j) for j in range(16)] for i in range(16)]
    for i in range(16):
        rows.append([4 * x for x in e[i]])
        for j in range(i):
            rows.append([2 * a + 2 * b for a, b in zip(e[i], e[j])])
            rows.append([2 * a - 2 * b for a, b in zip(e[i], e[j])])
    B = hermite_normal_form(rows)
    return GramLattice([[sum(x * y for x, y in zip(u, v)) // 2 for v in B] for u in B], name="bw16")


class TestBarnesWall16:
    def test_rank_det_and_first_shells(self, bw16):
        span = span_of([[int(i == j) for j in range(16)] for i in range(16)], bw16)
        assert (span.rank, gram_det(span)) == (16, 256)
        assert {k: len(S) for k, S in enumerate_shells(bw16, 4).items()} == {1: 0, 2: 0, 3: 0, 4: 4320}

    def test_strength_seven_and_no_equality(self, bw16):
        S = enumerate_shell(bw16, 4)
        report = design_strength(pair_distribution(S))
        assert (report.strength, report.capped) == (7, False)
        eq = classify(bw16, 4)
        assert (eq.count, eq.bound, eq.case) == (4320, 341088, NONE)
        assert eq.evidence["exclusion"] == "strength-table"


class TestOrthonormalSystem:
    def test_cubic(self):
        S = enumerate_shell(builtin("zn:3"), 1)
        system = orthonormal_system(S)
        assert system is not None
        assert len(system) == 3

    def test_rank_deficient_norm_one_shell(self):
        L = GramLattice([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
        S = enumerate_shell(L, 1)
        assert orthonormal_system(S) is None

    def test_wrong_norm_rejected(self, e8_shell):
        with pytest.raises(ValueError):
            orthonormal_system(e8_shell)


class TestReflectionClosure:
    @pytest.mark.parametrize("name", ["e8", "dn:4", "zn:8", "an:3"])
    def test_closed_on_integral_lattices(self, name):
        # reflections in norm-2 vectors always preserve an integral lattice
        S = enumerate_shell(builtin(name), 2)
        assert reflection_closure(S)

    def test_empty_shell_closed(self):
        S = enumerate_shell(builtin("scaledz:4"), 2)
        assert reflection_closure(S)

    def test_wrong_norm_rejected(self):
        S = enumerate_shell(builtin("zn:3"), 1)
        with pytest.raises(ValueError):
            reflection_closure(S)

    def test_rows_of_another_norm_rejected(self):
        # a caller-built norm-2 shell whose rows have norm 1
        with pytest.raises(PreconditionError, match="squared norm 2"):
            reflection_closure(Shell(2, np.array([[1], [-1]]), builtin("zn:1")))

    @pytest.mark.parametrize("i", [0, 57, 119])
    def test_e8_without_one_pair_is_not_closed(self, e8_shell, i):
        # a root a with <r,a> = +-1 maps r -+ a, which is kept, onto the missing r
        V = np.delete(e8_shell.vectors, [i, 239 - i], axis=0)
        assert not reflection_closure(Shell(2, V, e8_shell.lattice))

    def test_a_pair_set_that_a_reflection_leaves(self):
        # two roots of A2 at 120 degrees: each reflects the other onto the
        # third root, which is missing
        assert not reflection_closure(Shell(2, np.array([[1, 0], [0, 1], [-1, 0], [0, -1]]), builtin("an:2")))

    def test_a_closed_proper_subset(self):
        # two orthogonal roots of D4 (A1 + A1) are closed, though not the shell
        L = builtin("dn:4")
        V = enumerate_shell(L, 2).vectors
        a = V[0]
        b = next(v for v in V if inner(L, a, v) == 0)
        assert reflection_closure(Shell(2, np.array([a, b, -a, -b]), L))

    @pytest.mark.parametrize("name, keys", [("an:22", np.int64), ("an:23", object)])
    def test_keys_past_int64_are_python_ints(self, monkeypatch, name, keys):
        # B = 7 (coordinates of at most 1): 7**22 < 2**62 <= 7**23
        S = enumerate_shell(builtin(name), 2)
        dtypes, searchsorted = [], np.searchsorted
        monkeypatch.setattr(np, "searchsorted", lambda a, v: dtypes.append(a.dtype) or searchsorted(a, v))
        assert reflection_closure(S)
        assert not reflection_closure(Shell(2, S.vectors[1:-1], S.lattice))
        assert set(dtypes) == {np.dtype(keys)}

    @pytest.mark.parametrize("rows", [1, 7, 240])
    def test_block_size_changes_no_answer(self, monkeypatch, e8_shell, rows):
        monkeypatch.setattr(importlib.import_module("shellbound.classify"), "_CLOSURE_ROWS", rows)
        assert reflection_closure(e8_shell)
        assert not reflection_closure(Shell(2, e8_shell.vectors[1:-1], e8_shell.lattice))

    def test_working_set_is_one_block(self, e8_shell):
        # 16 mirrors at a time: 16 x 240 keys, not the 240 x 240 products
        tracemalloc.start()
        try:
            assert reflection_closure(e8_shell)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.3 * 2**20


class TestRecognizeE8:
    def test_accepts_the_root_lattice(self, e8_shell):
        assert recognize_e8(e8_shell)

    def test_rejects_wrong_count(self):
        assert not recognize_e8(enumerate_shell(builtin("dn:8"), 2))
        assert not recognize_e8(enumerate_shell(builtin("zn:8"), 2))

    def test_rejects_wrong_norm(self, e8_shell):
        S = enumerate_shell(builtin("zn:3"), 1)
        with pytest.raises(ValueError):
            recognize_e8(S)

    @pytest.mark.parametrize("name", ["e8", "dn:4", "an:3", "zn:8", "dn:16"])
    def test_upper_half_spans_the_shell(self, name):
        # the certificate spans one row per +-pair; the reduced HNF is unique
        S = enumerate_shell(builtin(name), 2)
        assert span_of(S.vectors[len(S) // 2 :], S.lattice) == span_of(S.vectors, S.lattice)

    def test_agrees_with_classify(self, e8_shell):
        # true on e8; false on the tampered Gram of C12 and on D8, which classify NONE
        tampered = enumerate_shell(verify._tampered_e8(), 2)
        for S, expected in [(e8_shell, True), (tampered, False), (enumerate_shell(builtin("dn:8"), 2), False)]:
            assert recognize_e8(S) is expected
            assert (classify(S.lattice, 2).case == E8) is expected


class TestCallerBuiltShells:
    """Shell checks no norms, so reflection_closure checks a caller's rows itself."""

    @pytest.mark.parametrize("rows", [1, 7, 4096])
    def test_one_wrong_pair_is_found_in_any_slice(self, monkeypatch, e8_shell, rows):
        # the pair +-2e_0, of norm 8, among the 240 roots: every slicing finds it
        monkeypatch.setattr(importlib.import_module("shellbound.classify"), "_CHUNK_ROWS", rows)
        e = np.eye(8, dtype=np.int64)[:1]
        S = Shell(2, np.concatenate([e8_shell.vectors, 2 * e, -2 * e]), e8_shell.lattice)
        with pytest.raises(PreconditionError):
            reflection_closure(S)
        assert reflection_closure(e8_shell)


class TestClassify:
    def test_e8_route_computes_span_and_closure_once(self, monkeypatch):
        # the package exports a function named classify, so fetch the module
        mod = importlib.import_module("shellbound.classify")
        calls = []
        for name in ("span_of", "reflection_closure", "root_filter"):
            def counted(*args, _fn=getattr(mod, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(mod, name, counted)
        assert classify(builtin("e8"), 2).case == E8
        assert sorted(calls) == ["reflection_closure", "root_filter", "span_of"]

    def test_e8(self):
        report = classify(builtin("e8"), 2)
        assert report.equality and report.case == E8
        assert report.count == report.bound == 240
        ev = report.evidence
        assert ev["strength"] == 7
        assert ev["tight"] and ev["annihilator_identity"] and ev["spectrum_complete"]
        assert ev["span_rank"] == 8 and ev["span_det"] == 1 and ev["span_even"]

    def test_cubic(self):
        report = classify(builtin("zn:6"), 1)
        assert report.equality and report.case == ZN
        assert report.count == 12
        assert report.evidence["recognition"] == "orthonormal-system"
        assert report.evidence["orthonormal_count"] == 6

    def test_rank_one_square_multiple(self):
        report = classify(builtin("scaledz:1"), 4)
        assert report.equality and report.case == RANK1
        assert report.evidence == {"scale": 1, "m": 2}

    def test_rank_one_miss(self):
        report = classify(builtin("scaledz:4"), 2)
        assert not report.equality and report.case == NONE
        assert report.count == 0

    def test_count_exclusion(self):
        report = classify(builtin("dn:4"), 2)
        assert report.case == NONE
        assert (report.count, report.bound) == (24, 40)
        assert report.evidence["exclusion"] == "count"

    def test_circle_exclusion(self):
        report = classify(builtin("zn:2"), 3)
        assert report.case == NONE
        assert (report.count, report.bound) == (0, 12)
        assert report.evidence["exclusion"] == "circle"
        assert report.evidence["circle_excluded"] is True

    def test_norm_three_exclusion(self):
        report = classify(builtin("zn:3"), 3)
        assert report.case == NONE
        assert report.evidence["exclusion"] == "norm3-filter"
        assert report.evidence["n_from_sum"] == 10
        assert report.evidence["consistent"] is False

    def test_strength_table_exclusion(self):
        report = classify(builtin("dn:4"), 5)
        assert report.case == NONE
        assert report.evidence["exclusion"] == "strength-table"
        assert report.evidence["required_strength"] == 19
        assert report.evidence["allowed_strengths"] == [4, 5, 7, 11]

    def test_case_label_matches_equality(self):
        for name, k in (("zn:4", 1), ("e8", 2), ("scaledz:9", 9), ("an:3", 2), ("zn:2", 4)):
            report = classify(builtin(name), k)
            assert (report.case == NONE) == (not report.equality)

    @pytest.mark.parametrize("name", ["zn:1", "zn:2", "zn:3", "an:2", "dn:4", "e8", "scaledz:2"])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_catalog_soundness(self, name, k):
        # equality on the catalog happens only for the three known families
        L = builtin(name)
        report = classify(L, k)
        if name == "zn:1":
            expected = math.isqrt(k) ** 2 == k
        else:
            expected = (
                (name.startswith("zn:") and k == 1)
                or (name == "e8" and k == 2)
                or (name == "scaledz:2" and k == 2)
            )
        assert report.equality == expected

    def test_no_equality_above_norm_two_in_rank_two_plus(self):
        for name in ("zn:4", "an:3", "dn:4", "e8"):
            for k in (3, 4, 5):
                report = classify(builtin(name), k)
                assert not (report.equality and report.dim >= 2 and k >= 3)

    @pytest.mark.parametrize(
        "name, k, count, case",
        [("scaledz:2", 8, 2, RANK1), ("e8", 4, 2160, NONE), ("leech", 4, 196560, NONE)],
    )
    def test_rank_one_and_norms_past_two_build_no_shell(self, monkeypatch, name, k, count, case):
        # no route reads these vectors, so the shell is only counted
        mod = importlib.import_module("shellbound.classify")
        built = []
        monkeypatch.setattr(mod, "enumerate_shell", lambda *args: built.append(args))
        report = classify(builtin(name), k)
        assert (report.count, report.case, built) == (count, case, [])

    @pytest.mark.parametrize("name, k", [("zn:3", 1), ("e8", 2), ("dn:4", 2), ("zn:2", 2)])
    def test_norms_one_and_two_search_once(self, monkeypatch, name, k):
        # the built shell gives the count: no second search counts it again
        mod = importlib.import_module("shellbound.lattice")
        searches, search = [], mod._search
        monkeypatch.setattr(mod, "_search", lambda *args: searches.append(args) or search(*args))
        classify(builtin(name), k)
        assert len(searches) == 1

    @pytest.mark.parametrize("name", ["scaledz:1", "zn:2"])
    @pytest.mark.parametrize("k", [0, True], ids=["zero", "bool"])
    def test_norm_must_be_a_positive_integer(self, name, k):
        # the count and the build route reject k as shell_count does
        with pytest.raises(PreconditionError, match="positive integer"):
            classify(builtin(name), k)


_INVARIANCE_LATTICES = (
    [f"zn:{n}" for n in range(2, 9)] + [f"an:{n}" for n in range(2, 7)]
    + [f"dn:{n}" for n in range(4, 9)] + ["e8"]
)


@st.composite
def _rebased(draw):
    """A catalog lattice, a norm k <= 4, and its Gram matrix B^T G B after at
    most 30 elementary column operations b_i += c b_j with |c| <= 5."""
    name = draw(st.sampled_from(_INVARIANCE_LATTICES))
    k = draw(st.integers(1, 4))
    G = builtin(name).gram
    n = len(G)
    B = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 30))):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = draw(st.integers(-5, 5))
        for row in B:
            row[i] += c * row[j]
    gram = [[sum(B[a][p] * G[a][b] * B[b][q] for a in range(n) for b in range(n))
             for q in range(n)] for p in range(n)]
    return name, k, GramLattice(gram)


class TestBasisInvariance:
    @settings(max_examples=60, deadline=None)
    @given(_rebased())
    def test_count_and_case_do_not_depend_on_the_basis(self, case):
        name, k, L = case
        expected = classify(builtin(name), k)
        report = classify(L, k)
        assert (report.count, report.case) == (expected.count, expected.case)
