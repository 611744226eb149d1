"""Correctness checks on the answers of CLI requests.

A builtin request must print the same bytes as at the reference commit
(its SHA-256 and length are in reference.json) and contain the known values
in workloads.KNOWN.  A change-of-basis file request must give the
basis-invariant answer (count, equality, case) of the builtin lattice it was
made from.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from workloads import KNOWN, Request

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# A request prints at most this many bytes that are kept for checking; a
# longer answer is checked by hash and by the known values in this prefix.
KEEP_BYTES = 1 << 16


@dataclass
class Answer:
    """What one request run produced."""

    returncode: int
    timed_out: bool
    sha256: str
    nbytes: int
    head: bytes  # the first KEEP_BYTES bytes of standard output


def load_reference(path: Path = REFERENCE_PATH) -> Dict[str, Dict]:
    return json.loads(path.read_text())["requests"]


def _known_values_hold(key: str, answer: Answer) -> Optional[str]:
    known = KNOWN[key]
    if answer.nbytes <= KEEP_BYTES:
        try:
            result = json.loads(answer.head)["result"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"answer is not a report document ({exc})"
        for field, value in known.items():
            if result.get(field) != value:
                return f"{field} is {result.get(field)!r}, expected {value!r}"
        return None
    # too long to keep whole: sorted keys put the scalar fields first
    for field, value in known.items():
        if f'"{field}": {json.dumps(value)}' not in answer.head.decode("utf-8", "replace"):
            return f"{field} {value!r} not found at the head of the answer"
    return None


def problem(request: Request, answer: Answer, reference: Dict[str, Dict]) -> Optional[str]:
    """None when the answer is right, else the reason it is wrong."""
    if answer.timed_out:
        return "timed out"
    if answer.returncode != 0:
        return f"exit code {answer.returncode}"
    if request.from_file:
        return _known_values_hold(request.key, answer)
    ref = reference.get(request.key)
    if ref is None:
        return "no reference answer recorded"
    if answer.nbytes != ref["bytes"] or answer.sha256 != ref["sha256"]:
        return "output differs from the reference bytes"
    return _known_values_hold(request.key, answer)
