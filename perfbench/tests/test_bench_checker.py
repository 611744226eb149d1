import hashlib
import json

import checker
from checker import Answer
from workloads import Request

REFERENCE = checker.load_reference()


def _answer(text: str, returncode: int = 0) -> Answer:
    data = text.encode()
    return Answer(returncode, False, hashlib.sha256(data).hexdigest(), len(data), data[: checker.KEEP_BYTES])


def _doc(command: str, result: dict) -> str:
    return json.dumps({"command": command, "inputs": {}, "result": result, "version": "0.1.0"},
                      sort_keys=True, indent=2) + "\n"


def test_reference_answer_with_matching_bytes_passes():
    key = "bound --n 8 --k 2"
    text = _doc("bound", {"bound": 240}).replace('"inputs": {}', '"inputs": {\n    "k": 2,\n    "n": 8\n  }')
    request = Request(tuple(key.split()), key)
    ref = {key: {"sha256": hashlib.sha256(text.encode()).hexdigest(), "bytes": len(text.encode())}}
    assert checker.problem(request, _answer(text), ref) is None


def test_tampered_stdout_is_rejected():
    key = "bound --n 8 --k 2"
    request = Request(tuple(key.split()), key)
    text = _doc("bound", {"bound": 240})
    ref = {key: {"sha256": hashlib.sha256(text.encode()).hexdigest(), "bytes": len(text.encode())}}
    tampered = text.replace("240", "241")
    assert checker.problem(request, _answer(tampered), ref) == "output differs from the reference bytes"
    # same length, one byte changed
    assert len(tampered) == len(text)


def test_recorded_reference_rejects_a_changed_byte():
    key = "classify --lattice e8 --k 2"
    request = Request(tuple(key.split()), key)
    fake = _doc("classify", {"count": 240, "equality": True, "case": "E8"})
    assert checker.problem(request, _answer(fake), REFERENCE) == "output differs from the reference bytes"


def test_file_request_is_judged_on_invariants():
    request = Request(("classify", "--lattice", "@x.json", "--k", "2"), "classify --lattice e8 --k 2", True)
    right = _doc("classify", {"count": 240, "equality": True, "case": "E8", "evidence": {"basis": "any"}})
    assert checker.problem(request, _answer(right), REFERENCE) is None


def test_wrong_classify_case_is_rejected():
    request = Request(("classify", "--lattice", "@x.json", "--k", "2"), "classify --lattice e8 --k 2", True)
    wrong = _doc("classify", {"count": 240, "equality": True, "case": "NONE"})
    assert checker.problem(request, _answer(wrong), REFERENCE) == "case is 'NONE', expected 'E8'"


def test_wrong_count_exit_code_and_timeout_are_failures():
    request = Request(("classify", "--lattice", "@x.json", "--k", "1"), "classify --lattice zn:2 --k 1", True)
    short = _doc("classify", {"count": 2, "equality": False, "case": "NONE"})
    assert checker.problem(request, _answer(short), REFERENCE) == "count is 2, expected 4"
    assert checker.problem(request, _answer("", returncode=3), REFERENCE) == "exit code 3"
    timed_out = Answer(-9, True, "", 0, b"")
    assert checker.problem(request, timed_out, REFERENCE) == "timed out"


def test_long_answer_is_checked_at_its_head():
    key = "shell --lattice leech --k 4 --vectors"
    request = Request(tuple(key.split()), key)
    ref = REFERENCE[key]
    head = _doc("shell", {"count": 196560, "dim": 24, "vectors": [[0] * 24] * 3000})
    answer = Answer(0, False, ref["sha256"], ref["bytes"], head.encode()[: checker.KEEP_BYTES])
    assert checker.problem(request, answer, REFERENCE) is None
    bad = Answer(0, False, ref["sha256"], ref["bytes"], head.replace("196560", "196561").encode()[: checker.KEEP_BYTES])
    assert checker.problem(request, bad, REFERENCE).startswith("count 196560 not found")
