import json
from fractions import Fraction

import workloads
from checker import load_reference


def _det(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    n, det = len(m), Fraction(1)
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def _read(paths):
    return [p.read_text() for p in paths]


def test_generator_is_deterministic_for_a_seed(tmp_path):
    a = workloads.build("classify-mix", 7, tmp_path / "a", root=tmp_path)
    b = workloads.build("classify-mix", 7, tmp_path / "b", root=tmp_path)
    assert [r.key for r in a] == [r.key for r in b]
    assert _read(sorted((tmp_path / "a").iterdir())) == _read(sorted((tmp_path / "b").iterdir()))
    c = workloads.build("classify-mix", 8, tmp_path / "c", root=tmp_path)
    assert [r.key for r in c] != [r.key for r in a]
    assert _read(sorted((tmp_path / "c").iterdir())) != _read(sorted((tmp_path / "a").iterdir()))


def test_classify_skewed_holds_only_the_file_requests(tmp_path):
    requests = workloads.build("classify-skewed", 1, tmp_path, root=tmp_path)
    assert len(requests) == 16 and all(r.from_file for r in requests)
    assert sorted(r.key for r in requests) == sorted(
        r.key for r in workloads.build("classify-mix", 1, tmp_path / "mix", root=tmp_path) if r.from_file)


def test_classify_mix_shape(tmp_path):
    requests = workloads.build("classify-mix", 1, tmp_path, root=tmp_path)
    assert len(requests) == 48
    files = [r for r in requests if r.from_file]
    assert len(files) == 16
    assert all(r.args[0] == "classify" and r.args[2].startswith("@") for r in files)
    classify = [r for r in requests if r.args[0] == "classify" and not r.from_file]
    assert len(classify) == 23
    cases = {workloads.KNOWN[r.key]["case"] for r in requests if r.args[0] == "classify"}
    assert cases == {"ZN", "E8", "RANK1", "NONE"}


def test_signed_permutation_keeps_the_gram_entries(tmp_path):
    paths = workloads.write_mix_files("classify-mix", 3, tmp_path)
    for path, (lattice, _k) in zip(paths, workloads._MIX_FILES):
        gram = json.loads(path.read_text())["gram"]
        builtin = workloads.builtin_gram(lattice)
        assert _det(gram) == _det(builtin)
        assert sorted(gram[i][i] for i in range(len(gram))) == sorted(builtin[i][i] for i in range(len(builtin)))
        assert sorted(abs(x) for row in gram for x in row) == sorted(abs(x) for row in builtin for x in row)


def test_change_of_basis_is_unimodular_and_in_range(tmp_path):
    paths = workloads.write_mix_files("classify-skewed", 3, tmp_path)
    largest = []
    for path, (lattice, _k) in zip(paths, workloads._MIX_FILES):
        gram = json.loads(path.read_text())["gram"]
        assert _det(gram) == _det(workloads.builtin_gram(lattice))
        largest.append(max(abs(x) for row in gram for x in row))
    skewed = [m for m, (lat, _) in zip(largest, workloads._MIX_FILES) if not lat.startswith("scaledz")]
    assert min(skewed) >= workloads.COB_MIN_ENTRY
    assert max(skewed) <= workloads.COB_MAX_ENTRY


def test_known_answers_match_the_mathematics():
    for n in range(2, 13):
        assert workloads.KNOWN[f"classify --lattice zn:{n} --k 1"] == {"count": 2 * n, "equality": True, "case": "ZN"}
    assert workloads.KNOWN["classify --lattice e8 --k 2"]["count"] == 240
    assert workloads.KNOWN["shell --lattice leech --k 4"]["count"] == 196560


def test_every_request_has_a_reference(tmp_path):
    reference = load_reference()
    for workload in workloads.WORKLOADS:
        for request in workloads.build(workload, 0, tmp_path / workload, root=tmp_path):
            assert request.key in reference
            assert request.key in workloads.KNOWN
