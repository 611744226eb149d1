"""One traced request through perfbench/tracer.py, run as a script the way
the benchmark runs it.  The tracer's info hooks read the arguments and
results of the functions they wrap, so a changed signature breaks this test
before it breaks a traced benchmark run.  The tracer file is only run."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_classify_records_case_and_shell_size(tmp_path):
    spans_out = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans_out), "r1",
         "classify", "--lattice", "e8", "--k", "2"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    spans = [[name, info] for name, _, _, _, info in json.loads(spans_out.read_text())["spans"]]
    assert ["classify.classify", {"case": "E8"}] in spans
    assert ["design.pair_distribution", {"size": 240, "rank": 8}] in spans
