"""One traced request through perfbench/tracer.py, run as a script the way
the benchmark runs it.  The tracer's info hooks read the arguments and
results of the functions they wrap, so a changed signature breaks this test
before it breaks a traced benchmark run.  The tracer file is only run."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _trace(tmp_path, *request):
    """The spans of one request run through the tracer script."""
    spans_out = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans_out), "r1", *request],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(spans_out.read_text())["spans"]


def test_traced_classify_records_case_and_shell_size(tmp_path):
    spans = [[name, info] for name, _, _, _, info in _trace(tmp_path, "classify", "--lattice", "e8", "--k", "2")]
    assert ["classify.classify", {"case": "E8"}] in spans
    assert ["design.pair_distribution", {"size": 240, "rank": 8}] in spans


def test_traced_count_route_records_case_and_builds_no_shell(tmp_path):
    # classify counts the norm-4 shell of e8, which no route reads
    spans = [[name, info] for name, _, _, _, info in _trace(tmp_path, "classify", "--lattice", "e8", "--k", "4")]
    assert ["classify.classify", {"case": "NONE"}] in spans
    assert not any(name == "lattice.enumerate_shell" for name, _ in spans)


def test_traced_criteria_span_their_library_calls(tmp_path):
    # the engine loads after the tracer has wrapped the library, so each
    # criterion's calls nest under its span
    spans = _trace(tmp_path, "verify-paper", "--quiet", "--criteria", "C04,C11")
    edges = Counter((spans[parent][0], name) for name, _, _, parent, _ in spans if parent >= 0)
    assert edges[("cli.criterion.C04", "filter.filter_search")] == 2
    assert edges[("cli.criterion.C11", "design.pair_distribution")] == 47
    assert edges[("cli.criterion.C11", "design.moment_sum")] == 282


def test_traced_c08_counts_and_builds_no_shell(tmp_path):
    # C08 checks counts alone, so no shell is built at any depth under its span
    spans = _trace(tmp_path, "verify-paper", "--quiet", "--criteria", "C08")
    c08 = [i for i, (name, *_) in enumerate(spans) if name == "cli.criterion.C08"]
    assert len(c08) == 1

    def under_c08(i):
        while i >= 0 and i != c08[0]:
            i = spans[i][3]
        return i == c08[0]

    assert not [i for i, (name, *_) in enumerate(spans) if name == "lattice.enumerate_shell" and under_c08(i)]
