"""Wall-clock perf smoke of the event loop (CI regression guard).

Everything else under ``benchmarks/`` asserts on *simulated* time; this
file asserts on *host* time — shrunken ``repro bench`` stages with
generous-but-strict budgets, so a gross regression in the scheduler hot
path or the ULT worker pool fails CI instead of silently making
every sweep slower.  The budgets are an order of magnitude above the
measured numbers to stay robust on slow shared runners; the
``pytest-timeout`` marker is the hard backstop.
"""

from __future__ import annotations

import pytest

from repro.harness.bench import run_bench

#: hard wall-clock stop for the whole module in CI (pytest-timeout);
#: locally (plugin absent) the per-stage budget asserts still apply
pytestmark = pytest.mark.timeout(300)

#: seconds — quick-stage budgets, ~10x the measured numbers
CHURN_BUDGET_S = 10.0
JACOBI_BUDGET_S = 30.0
SWEEP_BUDGET_S = 30.0


@pytest.fixture(scope="module")
def payload():
    return run_bench(quick=True)


def _stage(payload, name):
    return next(s for s in payload["stages"] if s["name"] == name)


def test_payload_shape(payload):
    assert payload["bench"] == "scale_smoke" and payload["quick"]
    names = [s["name"] for s in payload["stages"]]
    assert names == ["ult_churn", "jacobi", "ctx_sweep"]
    for stage in payload["stages"]:
        rows = stage.get("rows") or [stage["sample"]]
        assert rows, f"stage {stage['name']} measured nothing"


def test_jacobi_reps_trace_identical(payload):
    """The determinism contract, enforced at bench scale: every jacobi
    rep must produce the same simulated makespan and timeline digest."""
    jacobi = _stage(payload, "jacobi")
    assert jacobi["trace_identical"], (
        f"jacobi reps diverged: {jacobi['sample']}")


def test_churn_creates_no_workers_once_warm(payload):
    """The pool's whole point: no OS-thread spawn/join per ULT
    lifecycle.  After warm-up the timed churn reps must reuse workers
    only, so the pool's ``created`` count does not move."""
    churn = _stage(payload, "ult_churn")
    assert churn["workers_created"] == 0


def test_stage_wall_clock_budgets(payload):
    churn = _stage(payload, "ult_churn")
    jacobi = _stage(payload, "jacobi")
    sweep = _stage(payload, "ctx_sweep")
    assert churn["sample"]["min_s"] < CHURN_BUDGET_S
    assert jacobi["sample"]["min_s"] < JACOBI_BUDGET_S
    assert all(r["wall_s"] < SWEEP_BUDGET_S for r in sweep["rows"])


def test_ops_rates_positive(payload):
    for name in ("ult_churn", "jacobi"):
        assert _stage(payload, name)["sample"]["ops_per_s"] > 0, name
    assert all(r["switches_per_s"] > 0
               for r in _stage(payload, "ctx_sweep")["rows"])
