"""Benchmark of the shellbound CLI as users run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client sends one request at a time in a closed loop; each request is a
fresh ``python -m shellbound ...`` process running the package in ``src/``
of the checkout this file sits in.  Every answer is checked (checker.py).

With ``--trace 0`` the run repeats passes over the workload's requests for
about S seconds (at least one pass) and reports the end-to-end metrics.
With ``--trace 1`` it makes one untraced and one traced pass and reports
the per-layer metrics derived from the traced pass's spans (tracer.py).
``--workload all`` runs every workload in turn.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
A results file with the machine record, every request and the metrics is
written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import checker
import workloads
from checker import Answer
from workloads import Request

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_p75_s": "s",
    "vectors_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "lattice.enumerate_shell.self_s": "s",
    "lattice.enumerate_shell.calls": "count",
    "lattice.enumerate_shell.vectors": "count",
    "lattice.enumerate_shell.speedup_2t": "ratio",
    "lattice.process_pools": "count",
    "lattice.brute_force_shell.self_s": "s",
    "lattice.brute_force_shell.calls": "count",
    "lattice.span_of.self_s": "s",
    "lattice.hermite_normal_form.self_s": "s",
    "lattice.GramLattice.self_s": "s",
    "lattice.lattice_from_document.self_s": "s",
    "design.pair_distribution.self_s": "s",
    "design.pair_distribution.calls": "count",
    "design.pair_distribution.pairs": "count",
    "design.pair_distribution.flop": "flop",
    "design.pair_distribution.bytes": "B",
    "design.design_strength.self_s": "s",
    "design.moment_sum.calls": "count",
    "design.annihilator_identity_holds.self_s": "s",
    "exactpoly.Poly.evals": "count",
    "exactpoly.Poly.eval_s": "s",
    "exactpoly.gegenbauer.cache_misses": "count",
    "exactpoly.cumulative_gegenbauer.self_s": "s",
    "filter.filter_search.self_s": "s",
    "filter.root_filter.calls": "count",
    "classify.classify.self_s": "s",
    "classify.classify.calls": "count",
    "classify.reflection_closure.self_s": "s",
    "classify.recognize_e8.self_s": "s",
    "classify.orthonormal_system.self_s": "s",
    "classify.span_of_per_e8": "count",
    "cli.main.self_s": "s",
    "cli.stdout_bytes": "B",
    **{f"cli.criterion.C{i:02d}_s": "s" for i in range(1, 13)},
    "cli.criterion.C11.self_s": "s",
    "setup.import_s": "s",
    "trace.overhead_s": "s",
}

SETUP_PROBES = 6          # fresh interpreters timed for setup_s in each pass
RUN_LIMIT_S = 150.0       # requests are cut off this long after a workload starts


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


# ---------------------------------------------------------------------------
# running one request

@dataclass
class Record:
    request: Request
    wall_s: float
    rss_kb: int
    answer: Answer
    problem: Optional[str]
    spans: Optional[Dict] = None


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_command(argv: List[str], timeout: float):
    """Run argv to completion; return (wall_s, rss_kb, Answer, stderr_tail)."""
    out, err = bytearray(), bytearray()
    digest = hashlib.sha256()
    nbytes = [0]

    def count_and_hash(chunk_stream):
        while True:
            chunk = chunk_stream.read(1 << 16)
            if not chunk:
                return
            nbytes[0] += len(chunk)
            digest.update(chunk)
            if len(out) < checker.KEEP_BYTES:
                out.extend(chunk[: checker.KEEP_BYTES - len(out)])

    def keep_tail(chunk_stream):
        while True:
            chunk = chunk_stream.read(1 << 16)
            if not chunk:
                return
            err.extend(chunk)
            del err[:-4096]

    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    readers = [
        threading.Thread(target=count_and_hash, args=(proc.stdout,)),
        threading.Thread(target=keep_tail, args=(proc.stderr,)),
    ]
    for t in readers:
        t.start()
    pidfd = os.pidfd_open(proc.pid)
    try:
        timed_out = not select.select([pidfd], [], [], max(timeout, 0.0))[0]
    finally:
        os.close(pidfd)
    # The request has ended or is out of time.  Until it is reaped its
    # process group cannot be reused, so this kill reaches only the request
    # (on time-out) and any worker process it left behind.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    for t in readers:
        t.join()
    proc.stdout.close()
    proc.stderr.close()
    answer = Answer(proc.returncode, timed_out, digest.hexdigest(), nbytes[0], bytes(out))
    return wall, usage.ru_maxrss, answer, bytes(err).decode("utf-8", "replace")


def run_request(request: Request, timeout: float, reference: Dict, spans_path: Optional[Path]) -> Record:
    """One request, untraced or (with spans_path) through tracer.py."""
    if spans_path is None:
        argv = [sys.executable, "-m", "shellbound", *request.args]
    else:
        argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path), spans_path.stem, *request.args]
    wall, rss_kb, answer, err = run_command(argv, timeout)
    problem = checker.problem(request, answer, reference)
    if problem is not None and err.strip():
        problem += ": " + err.strip().splitlines()[-1]
    spans = None
    if spans_path is not None and spans_path.exists():
        spans = json.loads(spans_path.read_text())
        spans_path.unlink()
    return Record(request, wall, rss_kb, answer, problem, spans)


@dataclass
class Pass:
    wall_s: float     # the requests' latencies summed: the pass as the client saw it
    elapsed_s: float  # the pass with its set-up probes and checks
    records: List[Record] = field(default_factory=list)


def probe_slots(n_requests: int) -> List[int]:
    """Where the SETUP_PROBES set-up probes of a pass go: slot i is before
    request i, slot n_requests after the last.  They are spread evenly, so
    that setup_s samples the machine across the pass."""
    return [round(j * n_requests / (SETUP_PROBES - 1)) for j in range(SETUP_PROBES)]


def run_pass(requests: List[Request], workload: str, reference: Dict, deadline: float,
             spans_dir: Optional[Path] = None, setup_times: Optional[List[float]] = None) -> Pass:
    """Every request once, in order, with set-up probes between requests
    when setup_times is given.  A request left with no time before the run's
    deadline is not started and counts as timed out."""
    timeout = workloads.REQUEST_TIMEOUT_S[workload]
    slots = probe_slots(len(requests)) if setup_times is not None else []
    records = []
    start = time.perf_counter()
    for idx in range(len(requests) + 1):
        for _ in range(slots.count(idx)):
            setup_times.append(time_setup())
        if idx == len(requests):
            break
        request = requests[idx]
        left = deadline - time.perf_counter()
        if left <= 0:
            answer = Answer(-1, True, "", 0, b"")
            records.append(Record(request, 0.0, 0, answer, "not started: run time limit"))
            continue
        spans_path = None if spans_dir is None else spans_dir / f"spans{idx:03d}.json"
        records.append(run_request(request, min(timeout, left), reference, spans_path))
    return Pass(sum(r.wall_s for r in records), time.perf_counter() - start, records)


# ---------------------------------------------------------------------------
# metrics

def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def work_per_pass(requests: List[Request], reference: Dict):
    """(vectors, pairs) that the right answers to one pass hold: the work of
    the pass at its stated input size."""
    vectors = sum(reference[r.key]["vectors"] for r in requests)
    pairs = sum(reference[r.key]["pairs"] for r in requests)
    return vectors, pairs


def end_to_end(passes: List[Pass], setup_s: float, vectors: int) -> Dict[str, float]:
    latencies = [r.wall_s for p in passes for r in p.records if r.wall_s > 0]
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": setup_s,
        "latency_p50_s": percentile(latencies, 50),
        "latency_p75_s": percentile(latencies, 75),
        "vectors_per_s": statistics.median(vectors / p.wall_s for p in passes),
        "peak_rss_mb": statistics.median(max(r.rss_kb for r in p.records) / 1024 for p in passes),
    }


def span_table(spans: List) -> List[Dict]:
    """Spans of one request with their duration and self time (duration less
    the time its child spans cover)."""
    rows = [{"name": s[0], "dur": s[2] - s[1], "parent": s[3], "info": s[4] or {}} for s in spans]
    for row in rows:
        row["self"] = row["dur"]
    for row in rows:
        if row["parent"] >= 0:
            rows[row["parent"]]["self"] -= row["dur"]
    return rows


def _speedup_2t(enumerate_s: Dict[tuple, float]) -> float:
    """Enumeration time of the --threads 1 requests over that of the same
    requests at the default thread count; 0 when the pass has no such pair."""
    one = default = 0.0
    for args, seconds in enumerate_s.items():
        pos = [i for i in range(len(args) - 1) if args[i:i + 2] == ("--threads", "1")]
        base = args[:pos[0]] + args[pos[0] + 2:] if pos else None
        if base in enumerate_s:
            one += seconds
            default += enumerate_s[base]
    return one / default if default else 0.0


def _under_e8_classify(rows: List[Dict], idx: int) -> bool:
    parent = rows[idx]["parent"]
    while parent >= 0:
        if rows[parent]["name"] == "classify.classify" and rows[parent]["info"].get("case") == "E8":
            return True
        parent = rows[parent]["parent"]
    return False


def per_layer(traced: Pass, untraced: Pass) -> Dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its requests.

    pairs, flop and bytes of the pair kernel are computed from each call's
    shell: m = N/2 antipodal representatives of rank n give m*m pairs,
    2mn^2 + 2m^2n flop and 8(2mn + n^2 + m^2) bytes (the float64 operands
    and the product matrix, each once).
    """
    self_s: Dict[str, float] = {}
    total_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    enumerate_s: Dict[tuple, float] = {}
    m = dict.fromkeys(PER_LAYER, 0)
    imports = []
    e8_classify = e8_span_of = 0
    for r in traced.records:
        m["cli.stdout_bytes"] += r.answer.nbytes
        if r.spans is None:
            continue
        imports.append(r.spans["import_s"])
        m["lattice.process_pools"] += r.spans["process_pools"]
        m["exactpoly.gegenbauer.cache_misses"] += r.spans["gegenbauer_cache_misses"]
        rows = span_table(r.spans["spans"])
        for idx, row in enumerate(rows):
            name, info = row["name"], row["info"]
            self_s[name] = self_s.get(name, 0.0) + row["self"]
            total_s[name] = total_s.get(name, 0.0) + row["dur"]
            calls[name] = calls.get(name, 0) + 1
            if name == "lattice.enumerate_shell":
                m["lattice.enumerate_shell.vectors"] += info["vectors"]
                enumerate_s[r.request.args] = enumerate_s.get(r.request.args, 0.0) + row["dur"]
            elif name == "design.pair_distribution":
                reps, n = info["size"] // 2, info["rank"]
                m["design.pair_distribution.pairs"] += reps * reps
                m["design.pair_distribution.flop"] += 2 * reps * n * n + 2 * reps * reps * n
                m["design.pair_distribution.bytes"] += 8 * (2 * reps * n + n * n + reps * reps)
            elif name == "classify.classify" and info.get("case") == "E8":
                e8_classify += 1
            elif name == "lattice.span_of" and _under_e8_classify(rows, idx):
                e8_span_of += 1
    for metric in m:
        if metric.endswith(".self_s"):
            m[metric] = self_s.get(metric[: -len(".self_s")], 0.0)
        elif metric.endswith(".calls"):
            m[metric] = calls.get(metric[: -len(".calls")], 0)
        elif metric.startswith("cli.criterion.") and metric.endswith("_s"):
            m[metric] = total_s.get(metric[: -len("_s")], 0.0)
    m["exactpoly.Poly.evals"] = calls.get("exactpoly.Poly.__call__", 0)
    m["exactpoly.Poly.eval_s"] = total_s.get("exactpoly.Poly.__call__", 0.0)
    m["lattice.enumerate_shell.speedup_2t"] = _speedup_2t(enumerate_s)
    m["classify.span_of_per_e8"] = e8_span_of / e8_classify if e8_classify else 0
    m["setup.import_s"] = statistics.median(imports) if imports else 0.0
    m["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    return m


def top_layers(traced: Pass, count: int = 6) -> List:
    """The layers with the most self time in the traced pass, with the
    import time of all its requests as one more layer."""
    total: Dict[str, float] = {"setup.import_s": 0.0}
    for r in traced.records:
        if r.spans is None:
            continue
        total["setup.import_s"] += r.spans["import_s"]
        for row in span_table(r.spans["spans"]):
            total[row["name"]] = total.get(row["name"], 0.0) + row["self"]
    return sorted(total.items(), key=lambda kv: -kv[1])[:count]


# ---------------------------------------------------------------------------
# set-up and machine record

def check_checkout() -> None:
    for need in (ROOT / "src" / "shellbound" / "__init__.py", ROOT / "src" / "shellbound" / "cli.py",
                 checker.REFERENCE_PATH):
        if not need.is_file():
            raise SetupError(f"{need.relative_to(ROOT)} is missing; run from a full checkout")


def probe_import() -> Dict[str, str]:
    """Import the package once in a fresh interpreter (this also writes its
    byte code) and report where it came from and the numpy version."""
    code = "import shellbound, numpy; print(shellbound.__file__); print(numpy.__version__)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise SetupError(f"cannot import shellbound from src/: {proc.stderr.strip()[-500:]}")
    origin, numpy_version = proc.stdout.split()
    if Path(origin).resolve().parent != (ROOT / "src" / "shellbound").resolve():
        raise SetupError(f"shellbound was imported from {origin}, not from src/")
    return {"numpy": numpy_version}


def time_setup() -> float:
    """Time to start a fresh interpreter and import shellbound."""
    wall, _, answer, err = run_command([sys.executable, "-c", "import shellbound"], 60.0)
    if answer.returncode != 0:
        raise SetupError(f"import failed: {err.strip()[-500:]}")
    return wall


def _read(path) -> Optional[str]:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine(numpy_version: str) -> Dict:
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = _read(index / "size")
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "shellbound").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l2": caches.get("l2"),
        "l3": caches.get("l3"),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


# ---------------------------------------------------------------------------
# one workload

def _record_json(r: Record) -> Dict:
    return {
        "args": list(r.request.args), "key": r.request.key, "wall_s": r.wall_s,
        "rss_mb": r.rss_kb / 1024, "returncode": r.answer.returncode,
        "stdout_bytes": r.answer.nbytes, "problem": r.problem,
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool, numpy_version: str,
                 reference: Dict) -> Dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    work = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        requests = workloads.build(workload, seed, work / "inputs", root=ROOT)
        # Set-up probes run between the requests of every pass, so that
        # they sample the machine across the run rather than in one burst.
        setup_times: List[float] = []
        measure_start = time.perf_counter()
        passes = [run_pass(requests, workload, reference, deadline, setup_times=setup_times)]
        if trace:
            (work / "spans").mkdir(parents=True)
            traced = run_pass(requests, workload, reference, deadline, work / "spans")
        else:
            # start another pass only if it should end within the measuring time
            while time.perf_counter() - measure_start + passes[-1].elapsed_s <= seconds:
                passes.append(run_pass(requests, workload, reference, deadline, setup_times=setup_times))
        setup_s = statistics.median(setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    done = passes + ([traced] if trace else [])
    attempted = sum(len(p.records) for p in done)
    failed = sum(r.problem is not None for p in done for r in p.records)
    vectors, pairs = work_per_pass(requests, reference)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine(numpy_version),
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "end_to_end": end_to_end(passes, setup_s, vectors),
        "extra": {
            "passes": len(passes),
            "latency_samples": sum(len(p.records) for p in passes),
            "pairs_per_s": statistics.median(pairs / p.wall_s for p in passes),
            "vectors_per_pass": vectors, "pairs_per_pass": pairs,
        },
        "requests": [[_record_json(r) for r in p.records] for p in done],
    }
    if trace:
        result["per_layer"] = per_layer(traced, passes[0])
        result["top_self_time"] = top_layers(traced)
        result["spans"] = [{"args": list(r.request.args), **r.spans} for r in traced.records if r.spans]
    return result


def _print_summary(result: Dict) -> None:
    w = result["workload"]
    metrics = result["per_layer"] if result["trace"] else result["end_to_end"]
    units = PER_LAYER if result["trace"] else END_TO_END
    for name, value in metrics.items():
        print(f"{w:15s} {name:42s} {value:>16.6g} {units[name]}")
    extra = result["extra"]
    print(f"{w:15s} {'fail_ratio':42s} {result['fail_ratio']:>16.6g} "
          f"({result['failed']} of {result['attempted']} requests)")
    print(f"{w:15s} {'pairs_per_s':42s} {extra['pairs_per_s']:>16.6g} 1/s")
    print(f"{w:15s} {'passes / latency samples':42s} {extra['passes']:>8d} / {extra['latency_samples']}")
    for name, value in result.get("top_self_time", []):
        print(f"{w:15s} top self time: {name:29s} {value:>16.6g} s")
    for p in result["requests"]:
        for r in p:
            if r["problem"] is not None:
                print(f"{w:15s} FAILED {' '.join(r['args'])}: {r['problem']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        sys.path.insert(0, str(ROOT / "src"))
        numpy_version = probe_import()["numpy"]
        reference = checker.load_reference()
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), numpy_version, reference)
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        path = out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n")
        _print_summary(result)
        print(f"{name:15s} results written to {path.relative_to(ROOT)}")
        metrics = result["per_layer"] if args.trace else result["end_to_end"]
        units = PER_LAYER if args.trace else END_TO_END
        prefix = f"{name}/" if len(names) > 1 else ""
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        final["metrics"].update({f"{prefix}{k}": {"value": v, "unit": units[k]} for k, v in metrics.items()})
    final["correct"] = final["failed"] == 0
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
