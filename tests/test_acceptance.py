"""One test per acceptance criterion, each driving the shared verification
engine that also backs the verify-paper subcommand.  A summary table with one
line per criterion is printed at the end of the run."""

import json
import subprocess
import sys
import time

import pytest

from shellbound.verify import (
    CriterionFailure,
    SkipCriterion,
    VerifyContext,
    acceptance_criteria,
)
from shellbound.lattice import builtin

CRITERIA = {c.cid: c for c in acceptance_criteria()}


@pytest.fixture(scope="module")
def ctx(request):
    return VerifyContext(
        include_slow=request.config.getoption("--runslow"),
        verbose=False,
    )


def run_criterion(cid, ctx, criterion_log):
    criterion = CRITERIA[cid]
    start = time.monotonic()
    try:
        details = criterion.run(ctx)
    except SkipCriterion as exc:
        criterion_log(f"[{cid}] SKIP          {criterion.description} ({exc})")
        pytest.skip(str(exc))
    except CriterionFailure as exc:
        criterion_log(f"[{cid}] FAIL          {criterion.description}: {exc}")
        pytest.fail(f"{cid}: {exc}")
    elapsed = time.monotonic() - start
    criterion_log(f"[{cid}] PASS ({elapsed:6.2f} s) {criterion.description}")
    return details


def test_c01_bound_table(ctx, criterion_log):
    run_criterion("C01", ctx, criterion_log)


def test_c02_cubic_equality_family(ctx, criterion_log):
    run_criterion("C02", ctx, criterion_log)


def test_c03_rank8_equality(ctx, criterion_log):
    run_criterion("C03", ctx, criterion_log)


def test_c04_integrality_filters(ctx, criterion_log):
    run_criterion("C04", ctx, criterion_log)


def test_c05_closed_form_cross_validation(ctx, criterion_log):
    run_criterion("C05", ctx, criterion_log)


def test_c06_circle_exclusion(ctx, criterion_log):
    run_criterion("C06", ctx, criterion_log)


def test_c07_rank_one_family(ctx, criterion_log):
    run_criterion("C07", ctx, criterion_log)


def test_c08_universal_inequality(ctx, criterion_log):
    run_criterion("C08", ctx, criterion_log)


def test_c09_equality_consequences(ctx, criterion_log):
    run_criterion("C09", ctx, criterion_log)


@pytest.mark.slow
def test_c10_rank24_tight_design(ctx, criterion_log):
    details = run_criterion("C10", ctx, criterion_log)
    assert details["count"] == 196560


def test_c11_oracle_equivalence(ctx, criterion_log):
    run_criterion("C11", ctx, criterion_log)


def test_c12_negative_controls(ctx, criterion_log, tmp_path):
    run_criterion("C12", ctx, criterion_log)
    # process-level control: a tampered Gram must drive a nonzero exit
    rows = [list(r) for r in builtin("e8").gram]
    rows[0][2] = 0
    rows[2][0] = 0
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps({"dim": 8, "gram": rows}))
    result = subprocess.run(
        [
            sys.executable, "-m", "shellbound", "verify-paper",
            "--override", f"e8=@{path}", "--criteria", "C03", "--quiet",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 1
