"""Every builtin request recorded in perfbench/reference.json prints the
recorded answer: the same length and SHA-256.  The six long ones are marked
slow, so `pytest --runslow tests/test_reference_bytes.py` checks all of them.
The file is only read."""

import hashlib
import json
from pathlib import Path

import pytest

from shellbound import cli

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

# rank-24 shells and the largest designs and spectra take seconds each
LONG = {
    "shell --lattice leech --k 4",
    "shell --lattice leech --k 4 --threads 1",
    "shell --lattice leech --k 4 --vectors",
    "design --lattice e8 --k 10",
    "spectrum --lattice dn:16 --k 4",
    "design --lattice zn:24 --k 3",
}

RECORDED = json.loads(REFERENCE.read_text(encoding="utf-8"))["requests"]


@pytest.mark.parametrize(
    "request_id", [pytest.param(r, marks=pytest.mark.slow) if r in LONG else r for r in sorted(RECORDED)]
)
def test_recorded_bytes(request_id, capsys):
    assert cli.main(request_id.split()) == 0
    out = capsys.readouterr().out.encode()
    entry = RECORDED[request_id]
    assert (len(out), hashlib.sha256(out).hexdigest()) == (entry["bytes"], entry["sha256"])
