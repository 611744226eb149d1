"""Record the reference answers that checker.py compares runs against.

    python3 perfbench/record_reference.py

Runs every builtin request of every workload once untraced and once
traced, checks each answer against the known values in workloads.KNOWN and
that tracing left its bytes unchanged, and writes perfbench/reference.json:
the SHA-256 and length of each answer, and the work it stands for (shell
vectors returned by lattice.enumerate_shell, and ordered pairs N(N-1)
counted by design.pair_distribution), which vectors_per_s and pairs_per_s
divide by time.  Run it only at a commit whose answers are known to be
right.
"""

import json
import sys
import tempfile
from pathlib import Path

import checker
import run
import workloads

TIMEOUT_S = 600.0


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    numpy_version = run.probe_import()["numpy"]
    entries = {}
    bad = 0
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        spans_path = Path(tmp) / "spans.json"
        for key in workloads.reference_keys():
            request = workloads.Request(tuple(key.split()), key)
            _, _, plain, _ = run.run_command([sys.executable, "-m", "shellbound", *request.args], TIMEOUT_S)
            _, _, traced, _ = run.run_command(
                [sys.executable, str(run.HERE / "tracer.py"), str(spans_path), key, *request.args], TIMEOUT_S)
            entry = {"sha256": plain.sha256, "bytes": plain.nbytes}
            problem = checker.problem(request, plain, {key: entry})
            if problem is None and (traced.sha256, traced.nbytes) != (plain.sha256, plain.nbytes):
                problem = "traced answer differs from the untraced one"
            rows = json.loads(spans_path.read_text())["spans"]
            entry["vectors"] = sum(s[4]["vectors"] for s in rows if s[0] == "lattice.enumerate_shell")
            entry["pairs"] = sum(s[4]["size"] * (s[4]["size"] - 1) for s in rows
                                 if s[0] == "design.pair_distribution")
            print(f"{'ok ' if problem is None else 'BAD'} {key}: {entry}" + (f" ({problem})" if problem else ""))
            bad += problem is not None
            entries[key] = entry
    if bad:
        print(f"{bad} answers are wrong; reference not written", file=sys.stderr)
        return 1
    doc = {"machine": run.machine(numpy_version), "requests": entries}
    checker.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {checker.REFERENCE_PATH.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
