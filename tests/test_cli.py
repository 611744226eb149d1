import concurrent.futures
import importlib
import json
import math
import os
import resource
import subprocess
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from shellbound import cli, verify
from shellbound.classify import EqualityReport
from shellbound.design import DesignReport, PairDistribution, Spectrum
from shellbound.filter import FilterReport, Norm3Contradiction
from shellbound.lattice import Shell, SpanBasis, builtin, enumerate_shell, inner, lattice_to_document


def run_cli(*args, check=False):
    result = subprocess.run(
        [sys.executable, "-m", "shellbound", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    if check:
        assert result.returncode == 0, result.stderr
    return result


def run_capped(limit_mb, *args):
    """run_cli in a child whose address space is capped at limit_mb MB."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit_mb * 2**20, limit_mb * 2**20))

    return subprocess.run(
        [sys.executable, "-m", "shellbound", *args],
        capture_output=True,
        text=True,
        timeout=1800,
        preexec_fn=cap,
    )


def _reject_floats(text):
    raise AssertionError(f"float literal {text!r} in report payload")


def parse_report(stdout):
    doc = json.loads(stdout, parse_float=_reject_floats)
    assert set(doc) == {"command", "inputs", "result", "version"}
    return doc


class TestShellCommand:
    def test_e8_count(self):
        doc = parse_report(run_cli("shell", "--lattice", "e8", "--k", "2", check=True).stdout)
        assert doc["command"] == "shell"
        assert doc["result"]["count"] == 240

    def test_cubic_count(self):
        doc = parse_report(run_cli("shell", "--lattice", "zn:4", "--k", "1", check=True).stdout)
        assert doc["result"]["count"] == 8

    def test_empty_shell(self):
        doc = parse_report(run_cli("shell", "--lattice", "zn:2", "--k", "3", check=True).stdout)
        assert doc["result"]["count"] == 0

    def test_vector_listing(self):
        doc = parse_report(
            run_cli("shell", "--lattice", "zn:2", "--k", "1", "--vectors", check=True).stdout
        )
        assert doc["result"]["vectors"] == [[-1, 0], [0, -1], [0, 1], [1, 0]]


class TestBoundCommand:
    def test_rank_24(self):
        doc = parse_report(run_cli("bound", "--n", "24", "--k", "4", check=True).stdout)
        assert doc["result"]["bound"] == 4071600

    def test_answer_past_the_int_str_digit_limit(self, capsys):
        # 4974 digits, past the interpreter's default limit of 4300; only the
        # dump lifts the limit, so it holds again after the request
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        assert cli.main(["bound", "--n", "6000", "--k", "6000"]) == 0
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
        # Decimal parses and compares the digits without the int limit
        doc = json.loads(capsys.readouterr().out, parse_int=Decimal)
        assert doc["result"]["bound"] == 2 * math.comb(17998, 11999)


class TestSpectrumCommand:
    def test_e8(self):
        doc = parse_report(run_cli("spectrum", "--lattice", "e8", "--k", "2", check=True).stdout)
        assert doc["result"]["values"] == ["-1/1", "-1/2", "0/1", "1/2"]
        assert doc["result"]["pair_counts"]["0/1"] == 240 * 126


class TestDesignCommand:
    def test_e8(self):
        doc = parse_report(run_cli("design", "--lattice", "e8", "--k", "2", check=True).stdout)
        assert doc["result"] == {
            "strength": 7,
            "tight": True,
            "capped": False,
            "fisher_bound": 240,
            "count": 240,
        }

    def test_t_max_cap(self):
        doc = parse_report(
            run_cli("design", "--lattice", "zn:2", "--k", "1", "--tmax", "1", check=True).stdout
        )
        assert doc["result"]["strength"] == 1
        assert doc["result"]["capped"] is True


class TestFilterCommand:
    def test_search(self):
        doc = parse_report(run_cli("filter", "--k", "2", "--nmax", "200", check=True).stdout)
        assert doc["result"]["dimensions"] == [8]

    def test_single_dimension(self):
        doc = parse_report(run_cli("filter", "--k", "2", "--n", "8", check=True).stdout)
        assert doc["result"]["passes"] is True
        assert doc["result"]["evaluations"] == {"0/1": "0/1", "1/2": "0/1"}

    def test_n_and_nmax_conflict(self):
        result = run_cli("filter", "--k", "2", "--n", "8", "--nmax", "10")
        assert result.returncode == 2


class TestClassifyCommand:
    def test_e8(self):
        doc = parse_report(run_cli("classify", "--lattice", "e8", "--k", "2", check=True).stdout)
        assert doc["result"]["case"] == "E8"
        assert doc["result"]["equality"] is True
        assert doc["result"]["evidence"]["strength"] == 7

    def test_none_is_success(self):
        result = run_cli("classify", "--lattice", "dn:4", "--k", "2")
        assert result.returncode == 0
        doc = parse_report(result.stdout)
        assert doc["result"]["case"] == "NONE"
        assert doc["result"]["count"] == 24

    def test_rank_one(self):
        doc = parse_report(
            run_cli("classify", "--lattice", "scaledz:1", "--k", "4", check=True).stdout
        )
        assert doc["result"]["case"] == "RANK1"
        assert doc["result"]["evidence"] == {"m": 2, "scale": 1}

    def test_skewed_basis_of_z2(self, tmp_path):
        # Z^2 (det 1) in a skewed basis: all four norm-1 vectors, so case ZN
        path = tmp_path / "skewed.json"
        path.write_text(json.dumps({"dim": 2, "gram": [[73666, -78559], [-78559, 83777]]}))
        result = run_cli("classify", "--lattice", f"@{path}", "--k", "1")
        assert result.returncode == 0, result.stderr
        doc = parse_report(result.stdout)
        assert (doc["result"]["count"], doc["result"]["case"]) == (4, "ZN")


class TestErrorExits:
    def test_unknown_builtin(self):
        assert run_cli("shell", "--lattice", "nosuch", "--k", "1").returncode == 2

    def test_missing_file(self):
        assert run_cli("shell", "--lattice", "@/nonexistent.json", "--k", "1").returncode == 2

    def test_malformed_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{]")
        assert run_cli("shell", "--lattice", f"@{path}", "--k", "1").returncode == 2

    def test_indefinite_gram(self, tmp_path):
        path = tmp_path / "indef.json"
        path.write_text(json.dumps({"dim": 2, "gram": [[1, 2], [2, 1]]}))
        assert run_cli("shell", "--lattice", f"@{path}", "--k", "1").returncode == 3

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
    def test_integer_past_the_digit_limit(self, tmp_path):
        # json refuses integer literals past the int-to-str limit: an input error
        path = tmp_path / "long.json"
        path.write_text('{"dim": 1, "gram": [[1' + "0" * 5000 + "]]}")
        result = run_cli("shell", "--lattice", f"@{path}", "--k", "1")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: lattice document has an integer of more than ")
        assert f" {sys.get_int_max_str_digits()} digits" in result.stderr

    def test_bad_norm(self):
        assert run_cli("shell", "--lattice", "zn:2", "--k", "0").returncode == 2

    def test_unknown_criterion_id(self):
        assert run_cli("verify-paper", "--criteria", "C99", "--quiet").returncode == 2

    def test_repeated_criterion_id(self):
        # the echoed list would name C01 twice for one row
        result = run_cli("verify-paper", "--criteria", "C01, C01", "--quiet")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: repeated criterion id 'C01'\n"

    def test_failed_certificate(self, monkeypatch, capsys):
        # the package exports a function named classify, so fetch the module
        mod = importlib.import_module("shellbound.classify")
        monkeypatch.setattr(mod, "orthonormal_system", lambda S: None)
        assert cli.main(["classify", "--lattice", "zn:2", "--k", "1", "--threads", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "certification" in err

    def test_failed_norm_check(self, monkeypatch, capsys):
        # a search vector of the wrong norm is a bug: exit 1, nothing printed
        self._assert_norm_check_fails(monkeypatch, capsys, ["shell", "--lattice", "zn:2", "--k", "1"])

    def test_failed_norm_check_in_range_search(self, monkeypatch, capsys):
        # C08 searches norms 1..6 of zn:2 in one range search
        self._assert_norm_check_fails(monkeypatch, capsys, ["verify-paper", "--criteria", "C08", "--quiet"])

    @pytest.mark.parametrize("k", ["3", "1"], ids=["count", "build"])
    def test_failed_norm_check_in_classify(self, monkeypatch, capsys, k):
        # classify counts the norm-3 shell and builds the norm-1 one: both check the search
        self._assert_norm_check_fails(monkeypatch, capsys, ["classify", "--lattice", "zn:2", "--k", k])

    @staticmethod
    def _assert_norm_check_fails(monkeypatch, capsys, argv):
        # the row [1, 1] has norm 2 on zn:2, not the k it is reported with
        mod = importlib.import_module("shellbound.lattice")
        monkeypatch.setattr(mod, "_search", lambda L, kmin, k: iter([(np.array([[1, 1]]), np.array([k]))]))
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "norm check" in err

    def test_design_on_rank_one_exits_3(self, capsys):
        # design strength lives on the sphere: a precondition, not a bug
        assert cli.main(["design", "--lattice", "scaledz:1", "--k", "1"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: design strength is defined on the sphere, need n >= 2\n"

    def test_foreign_value_error_keeps_its_traceback(self, monkeypatch):
        # a ValueError the package did not raise as a precondition is a bug,
        # not exit 3
        def broken(threads):
            raise ValueError("operands could not be broadcast")

        monkeypatch.setattr(importlib.import_module("shellbound.design"), "worker_count", broken)
        with pytest.raises(ValueError, match="operands could not be broadcast"):
            cli.main(["spectrum", "--lattice", "e8", "--k", "2"])

    @pytest.mark.parametrize("message", ["Unable to allocate 2.00 GiB", ""])
    def test_out_of_memory_exits_3(self, monkeypatch, capsys, message):
        # an allocation that fails is reported in one line, not a traceback
        def exhausted(L, k):
            raise MemoryError(message)

        monkeypatch.setattr(importlib.import_module("shellbound.lattice"), "shell_count", exhausted)
        assert cli.main(["shell", "--lattice", "leech", "--k", "6"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: out of memory" + (f": {message}" if message else "") + "\n"


class TestBoundedMemory:
    """A count keeps one search frontier per level, each of at most
    _CHUNK_ROWS rows of coordinates in the narrowest type that holds their
    proven bound, whatever the answer and the norm."""

    @pytest.mark.parametrize(
        "command, args, limit_mb, expected",
        [
            # the top level alone has 2**22 + 1 children
            ("shell", ("--lattice", "zn:2", "--k", str(2**44)), 256, {"count": 4}),
            pytest.param("shell", ("--lattice", "zn:2", "--k", str(2**52)), 512, {"count": 4},
                         marks=pytest.mark.slow),
            pytest.param("shell", ("--lattice", "leech", "--k", "6"), 2048, {"count": 16773120},
                         marks=pytest.mark.slow),
            # classify counts a shell that no route reads
            pytest.param("classify", ("--lattice", "leech", "--k", "6"), 2048,
                         {"count": 16773120, "case": "NONE"}, marks=pytest.mark.slow),
        ],
        ids=["zn2-2**44", "zn2-2**52", "leech-6", "classify-leech-6"],
    )
    def test_count_fits_the_cap(self, command, args, limit_mb, expected):
        result = run_capped(limit_mb, command, *args)
        assert result.returncode == 0, result.stderr
        assert parse_report(result.stdout)["result"].items() >= expected.items()


class TestJsonable:
    def test_nested_fractions_serialize(self):
        payload = {Fraction(1, 2): [Fraction(-3, 4), (1, "a", None, True)], "x": {Fraction(0): Fraction(5)}}
        assert cli._jsonable(payload) == {"1/2": ["-3/4", [1, "a", None, True]], "x": {"0/1": "5/1"}}

    @pytest.mark.parametrize("value", [np.int64(5), {1, 2}, 0.5, [1, {"a": 2.0}]])
    def test_values_without_an_exact_form_raise(self, value):
        with pytest.raises(TypeError):
            cli._jsonable(value)

    @pytest.mark.parametrize(
        "argv, report",
        [
            ("classify --lattice e8 --k 2", EqualityReport),
            ("classify --lattice scaledz:2 --k 8", EqualityReport),
            ("design --lattice dn:4 --k 2", DesignReport),
            ("filter --k 2 --n 8", FilterReport),
        ],
    )
    def test_result_keys_are_the_report_fields(self, argv, report, capsys):
        # a field added to the report reaches the CLI with no second edit
        assert cli.main(argv.split()) == 0
        result = parse_report(capsys.readouterr().out)["result"]
        assert set(result) == set(report._fields)


# the fields of every report type, in order: the CLI's JSON keys
REPORT_FIELDS = {
    FilterReport: ("passes", "evaluations"),
    Norm3Contradiction: ("n_from_sum", "product_required", "product_actual", "consistent"),
    Spectrum: ("k", "values"),
    PairDistribution: ("k", "n", "size", "counts"),
    DesignReport: ("strength", "tight", "fisher_bound", "count", "capped"),
    EqualityReport: ("dim", "k", "count", "bound", "equality", "case", "evidence"),
    SpanBasis: ("rank", "basis", "gram"),
    verify.Criterion: ("cid", "description", "run"),
}


class TestReportTypes:
    @pytest.mark.parametrize("report", REPORT_FIELDS, ids=lambda t: t.__name__)
    def test_fields_are_pinned(self, report):
        assert report._fields == REPORT_FIELDS[report]

    @pytest.mark.parametrize("report", REPORT_FIELDS, ids=lambda t: t.__name__)
    def test_fields_cannot_be_rebound(self, report):
        r = report._make(range(len(report._fields)))
        for name in report._fields:
            with pytest.raises(AttributeError):
                setattr(r, name, None)
        assert tuple(r) == tuple(range(len(report._fields)))

    def test_a_nested_report_serializes_as_an_object(self):
        # a report is a tuple: its fields must win over the list branch
        payload = {"spectra": [Spectrum(2, (Fraction(-1, 2), Fraction(0)))]}
        assert cli._jsonable(payload) == {"spectra": [{"k": 2, "values": ["-1/2", "0/1"]}]}


class TestHugeNorm:
    def test_spectrum_in_the_int64_regime(self, tmp_path):
        q = 2**55
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps({"dim": 2, "gram": [[q, 0], [0, q]]}))
        result = run_cli("spectrum", "--lattice", f"@{path}", "--k", str(q))
        assert result.returncode == 0, result.stderr
        assert parse_report(result.stdout)["result"]["pair_counts"] == {"-1/1": 4, "0/1": 8}

    def test_rank_one_spectrum_beyond_int64(self):
        result = run_cli("spectrum", "--lattice", "scaledz:1", "--k", str(10**40))
        assert result.returncode == 0, result.stderr
        assert parse_report(result.stdout)["result"]["pair_counts"] == {"-1/1": 2}

    def test_root_solved_coordinate_past_int64(self, tmp_path):
        # +-2**64 e_1: only the top level is walked, the root solve gives y_0
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"dim": 2, "gram": [[1, 0], [0, 4**70]]}))
        k = str(2**128)
        result = run_cli("shell", "--lattice", f"@{path}", "--k", k, "--vectors")
        assert result.returncode == 0, result.stderr
        assert parse_report(result.stdout)["result"]["vectors"] == [[-(2**64), 0], [2**64, 0]]
        result = run_cli("classify", "--lattice", f"@{path}", "--k", k)
        assert result.returncode == 0, result.stderr
        assert parse_report(result.stdout)["result"]["count"] == 2

    def test_coordinates_past_float64_integers_exit_3(self):
        # the true count is 4 (+-2**63 e_i); it must not be reported as 0
        result = run_cli("shell", "--lattice", "zn:2", "--k", str(2**126))
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")


class TestDeterminism:
    def test_byte_stable_runs(self):
        a = run_cli("classify", "--lattice", "e8", "--k", "2", check=True).stdout
        b = run_cli("classify", "--lattice", "e8", "--k", "2", check=True).stdout
        assert a == b

    def test_threads_do_not_change_bytes(self):
        a = run_cli("spectrum", "--lattice", "dn:4", "--k", "2", "--threads", "1", check=True).stdout
        b = run_cli("spectrum", "--lattice", "dn:4", "--k", "2", "--threads", "2", check=True).stdout
        assert a == b


class TestNoProcessPool:
    def test_threads_start_no_process(self, monkeypatch):
        # with two usable CPUs, --threads 2 may use threads but never processes
        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        assert cli.main(["classify", "--lattice", "e8", "--k", "2", "--threads", "2"]) == 0
        assert cli.main(["shell", "--lattice", "dn:4", "--k", "4", "--threads", "2"]) == 0


class TestDumpRoundTrip:
    def test_dump_reparses_identically(self, tmp_path):
        path = tmp_path / "e8.json"
        run_cli("shell", "--lattice", "e8", "--k", "2", "--dump", str(path), check=True)
        assert json.loads(path.read_text()) == json.loads(lattice_to_document(builtin("e8")))
        doc = parse_report(
            run_cli("shell", "--lattice", f"@{path}", "--k", "2", check=True).stdout
        )
        assert doc["result"]["count"] == 240


class TestVerifyPaper:
    def test_default_run_passes(self):
        result = run_cli("verify-paper", "--quiet")
        assert result.returncode == 0, result.stderr
        doc = parse_report(result.stdout)
        assert doc["result"]["failed"] == 0
        statuses = {e["id"]: e["status"] for e in doc["result"]["criteria"]}
        assert statuses["C10"] == "skip"
        assert all(v == "pass" for cid, v in statuses.items() if cid != "C10")

    def test_criteria_subset(self):
        doc = parse_report(
            run_cli("verify-paper", "--criteria", "C01,C04", "--quiet", check=True).stdout
        )
        assert [e["id"] for e in doc["result"]["criteria"]] == ["C01", "C04"]

    def test_tampered_gram_fails(self, tmp_path):
        rows = [list(r) for r in builtin("e8").gram]
        rows[0][2] = 0
        rows[2][0] = 0
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps({"dim": 8, "gram": rows, "name": "tampered"}))
        result = run_cli(
            "verify-paper", "--override", f"e8=@{path}", "--criteria", "C03", "--quiet"
        )
        assert result.returncode == 1
        doc = parse_report(result.stdout)
        assert doc["result"]["criteria"][0]["status"] == "fail"

    def test_override_of_an_unknown_name_exits_2(self, tmp_path):
        # builtin names are case-sensitive: no criterion reads "E8", so the
        # tampered Gram would go unread and C03 would pass
        rows = [list(r) for r in builtin("e8").gram]
        rows[0][2] = rows[2][0] = 0
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps({"dim": 8, "gram": rows}))
        result = run_cli("verify-paper", "--override", f"E8=@{path}", "--criteria", "C03", "--quiet")
        assert result.returncode == 2
        assert result.stdout == ""
        assert "'E8'" in result.stderr

    @pytest.mark.parametrize(
        "name, criteria",
        [("zn:03", "C02,C09"), ("leech", "C08,C10")],
        ids=["alias-no-criterion-spells", "slow-lattice-without-include-slow"],
    )
    def test_override_that_no_criterion_reads_exits_2(self, tmp_path, name, criteria):
        # zn:03 is a valid alias of zn:3, but the criteria read zn:3; leech is
        # read only under --include-slow: either override would go unread
        path = tmp_path / "z3.json"
        path.write_text(json.dumps({"dim": 3, "gram": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
        result = run_cli("verify-paper", "--override", f"{name}=@{path}", "--criteria", criteria, "--quiet")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"error: no selected criterion reads the overridden lattice {name!r}\n"

    def test_tampered_override_fails_every_criterion_that_reads_it(self, tmp_path):
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps({"dim": 8, "gram": verify._tampered_e8().gram}))
        result = run_cli("verify-paper", "--override", f"e8=@{path}", "--quiet")
        assert result.returncode == 1, result.stderr
        rows = parse_report(result.stdout)["result"]["criteria"]
        assert [e["id"] for e in rows if e["status"] == "fail"] == ["C03", "C09"]

    def test_override_without_equality_fails_c09(self, tmp_path):
        # A3 has no norm-1 vectors, so zn:3 misses the bound: a fail row, not an error
        path = tmp_path / "a3.json"
        path.write_text(json.dumps({"dim": 3, "gram": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]}))
        result = run_cli("verify-paper", "--override", f"zn:3=@{path}", "--criteria", "C09", "--quiet")
        assert result.returncode == 1, result.stderr
        rows = parse_report(result.stdout)["result"]["criteria"]
        assert [(e["id"], e["status"]) for e in rows] == [("C09", "fail")]

    def test_oracle_box_too_large_exits_3(self, tmp_path):
        # Z^2 in a Fibonacci basis: the C11 box scan would not be exact in float64
        path = tmp_path / "fib.json"
        path.write_text(json.dumps({"dim": 2, "gram": [[165580141, 102334155], [102334155, 63245986]]}))
        result = run_cli("verify-paper", "--criteria", "C11", "--override", f"zn:2=@{path}", "--quiet")
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")

    def test_each_certificate_is_computed_once(self, monkeypatch, capsys):
        # the package exports a function named classify, so fetch the module
        mod = importlib.import_module("shellbound.classify")
        original = mod.pair_distribution
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(importlib.import_module("shellbound.design"), "pair_distribution", counting)
        monkeypatch.setattr(mod, "pair_distribution", counting)
        assert cli.main(["verify-paper", "--criteria", "C02,C03,C09", "--quiet", "--threads", "1"]) == 0
        capsys.readouterr()
        # one certificate per equality case: zn:2 to zn:24 at norm 1, e8 at norm 2
        assert len(calls) == 24

    def test_one_search_and_one_box_scan_per_lattice(self, monkeypatch, capsys):
        # C08 counts norms 1..6 of each of its lattices with one search; C11
        # builds them with one search of its own and scans one oracle box
        mod = importlib.import_module("shellbound.lattice")
        counted, built, scans = Counter(), Counter(), Counter()

        def counting(fn, counter):
            def wrapper(L, *args, **kwargs):
                counter[L.name] += 1
                return fn(L, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(verify, "shell_counts", counting(verify.shell_counts, counted))
        monkeypatch.setattr(verify, "enumerate_shells", counting(verify.enumerate_shells, built))
        monkeypatch.setattr(mod, "_box_bounds", counting(mod._box_bounds, scans))
        assert cli.main(["verify-paper", "--criteria", "C08,C11", "--quiet", "--threads", "1"]) == 0
        capsys.readouterr()
        assert counted == Counter(verify._C08_BUILTINS)
        assert built == Counter(verify._C11_BUILTINS)
        assert scans == Counter(verify._C11_BUILTINS)

    def test_no_shell_is_enumerated_twice(self, monkeypatch, capsys):
        # C07 and C08 only count, so they build no shell, and C11 builds
        # each norm 1..6 of its lattices once
        mod = importlib.import_module("shellbound.lattice")
        built, original = Counter(), mod.enumerate_shells

        def counting(L, kmax, kmin=1):
            built.update((L.name, k) for k in range(kmin, kmax + 1))
            return original(L, kmax, kmin)

        monkeypatch.setattr(mod, "enumerate_shells", counting)
        monkeypatch.setattr(verify, "enumerate_shells", counting)
        assert cli.main(["verify-paper", "--criteria", "C07,C08", "--quiet", "--threads", "1"]) == 0
        assert not built
        assert cli.main(["verify-paper", "--criteria", "C07,C08,C11", "--quiet", "--threads", "1"]) == 0
        capsys.readouterr()
        assert set(built) == {(name, k) for name in verify._C11_BUILTINS for k in range(1, 7)}
        assert max(built.values()) == 1

    def test_rank_one_reports_are_not_kept(self):
        # no later criterion reads C07's 160 equality reports
        ctx = verify.VerifyContext(threads=1, verbose=False)
        verify._c07_rank1(ctx)
        assert not any(name.startswith("scaledz:") for name, k in ctx._reports)


def test_c11_tally_matches_scalar_inner():
    # every shell whose moments C11 checks against the naive double sum
    checked = 0
    for name in verify._C11_BUILTINS:
        L = builtin(name)
        for k in range(1, 7):
            S = enumerate_shell(L, k)
            if L.n >= 2 and 0 < len(S.vectors) <= 200:
                V = S.vectors.tolist()
                assert verify._inner_tally(S) == Counter(inner(L, y, z) for y in V for z in V), (name, k)
                checked += 1
    assert checked == 47


def test_c11_tally_is_exact_beyond_int64():
    # norm 2**140 + 9 vectors of zn:2 (object rows): inner products such as
    # 2**140 - 9 exceed int64, and the tally keeps each one exact
    L = builtin("zn:2")
    half = [[2**70, 3], [3, 2**70], [2**70, -3], [-3, 2**70]]
    S = Shell(2**140 + 9, np.array(half + [[-x for x in v] for v in half], dtype=object), L)
    assert S.vectors.dtype == object
    V = S.vectors.tolist()
    tally = verify._inner_tally(S)
    assert tally == Counter(inner(L, y, z) for y in V for z in V)
    assert tally[2**140 - 9] == 8 and sum(tally.values()) == 64


def test_c11_tally_rejects_rows_out_of_antipodal_order():
    L = builtin("zn:2")
    # not a +-pair; and an odd shell whose reversal is its negation: the
    # Shell the tally reads cannot be built from either
    for rows in ([[0, 1], [1, 0]], [[-1, 0], [0, 0], [1, 0]]):
        with pytest.raises(ValueError):
            Shell(1, np.array(rows), L)


class TestVersionFlag:
    def test_reports_version(self):
        result = run_cli("--version")
        assert result.returncode == 0
        assert result.stdout.strip().endswith("0.1.0")
