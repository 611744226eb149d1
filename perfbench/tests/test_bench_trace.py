import run
from checker import load_reference
from workloads import Request

COUNTS = [name for name in run.PER_LAYER if name.endswith((".calls", ".vectors", ".pairs"))] + [
    "lattice.process_pools",
    "classify.span_of_per_e8",
    "exactpoly.Poly.evals",
    "exactpoly.gegenbauer.cache_misses",
    "design.pair_distribution.flop",
    "cli.stdout_bytes",
]

REQUESTS = [
    Request(tuple(key.split()), key)
    for key in (
        "classify --lattice e8 --k 2",
        "classify --lattice zn:5 --k 1",
        "design --lattice dn:8 --k 2",
        "filter --k 3 --n 10",
    )
]


def _traced(tmp_path, tag):
    reference = load_reference()
    deadline = run.time.perf_counter() + 120
    plain = run.run_pass(REQUESTS, "classify-mix", reference, deadline)
    spans = tmp_path / tag
    spans.mkdir()
    traced = run.run_pass(REQUESTS, "classify-mix", reference, deadline, spans)
    assert all(r.problem is None for r in plain.records + traced.records)
    return run.per_layer(traced, plain)


def test_two_traced_runs_give_identical_counts(tmp_path):
    first, second = _traced(tmp_path, "a"), _traced(tmp_path, "b")
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["classify.span_of_per_e8"] == 2
    assert first["classify.classify.calls"] == 2
    assert first["design.pair_distribution.pairs"] == (240 // 2) ** 2 + (10 // 2) ** 2 + (112 // 2) ** 2
    assert set(first) == set(run.PER_LAYER)


def test_self_time_excludes_child_spans():
    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None], ["c", 2.0, 3.0, 1, None], ["d", 5.0, 6.0, 0, None]]
    rows = run.span_table(spans)
    assert [round(r["self"], 9) for r in rows] == [6.0, 2.0, 1.0, 1.0]


def test_percentile_is_nearest_rank():
    values = list(range(1, 49))
    assert run.percentile(values, 75) == 36  # twelve of the 48 samples lie beyond it
    assert run.percentile(values, 50) == 24
    assert run.percentile([3.0, 1.0, 2.0], 75) == 3.0


def test_speedup_pairs_requests_that_differ_only_in_threads():
    enumerate_s = {
        ("shell", "--lattice", "leech", "--k", "4"): 3.0,
        ("shell", "--lattice", "leech", "--k", "4", "--threads", "1"): 4.5,
        ("shell", "--lattice", "leech", "--k", "4", "--vectors"): 3.1,
    }
    assert run._speedup_2t(enumerate_s) == 1.5
    assert run._speedup_2t({("classify", "--lattice", "e8", "--k", "2"): 1.0}) == 0.0


def test_setup_probes_are_spread_over_the_pass():
    half = run.SETUP_PROBES // 2
    assert run.probe_slots(1) == [0] * half + [1] * (run.SETUP_PROBES - half)
    slots = run.probe_slots(48)
    assert len(slots) == run.SETUP_PROBES and slots == sorted(slots)
    assert slots[0] == 0 and slots[-1] == 48
