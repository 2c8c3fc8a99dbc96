"""Verification suites: named bundles of checks with one runner.

Suites
------
``goldens``
    Diff every committed golden (solver + pipeline families).
``mms``
    Convergence-order / manufactured-solution battery.
``invariants``
    Conservation and monotonicity checks.
``gates``
    Paper gates over a reduced flow (library-average gates skip).
``parity``
    The reduced cross-mode parity matrix.
``fast``
    CI gate: goldens + fast MMS + invariants + gates over a reduced
    flow + the representative parity modes.
``all``
    Everything at full resolution, with the paper gates evaluated on
    the complete 14-cell x 4-variant flow (minutes of cold compute;
    warm engine caches make re-runs cheap).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

from repro.engine import Engine, default_engine
from repro.verify.goldens import GoldenStore
from repro.verify.invariants import all_invariant_checks
from repro.verify.mms import ConvergenceResult, all_mms_checks
from repro.verify.paper_gates import evaluate_gates
from repro.verify.parity import FAST_MODES, run_parity_matrix
from repro.verify.report import (
    CheckResult,
    STATUS_FAIL,
    STATUS_PASS,
    VerifyReport,
)
from repro.verify.snapshots import PIPELINE_GOLDENS, SOLVER_GOLDENS

#: Suite names accepted by the CLI and :func:`run_suite`.
SUITES = ("fast", "all", "goldens", "mms", "invariants", "gates",
          "parity")


def golden_checks(store: Optional[GoldenStore] = None,
                  engine: Optional[Engine] = None,
                  pipeline: bool = True) -> List[CheckResult]:
    """Diff (or, in update mode, regenerate) every registered golden."""
    store = store or GoldenStore()
    engine = engine or default_engine()
    results: List[CheckResult] = []
    for name, (builder, tol) in sorted(SOLVER_GOLDENS.items()):
        results.append(_golden_check(store, name, builder, tol))
    if pipeline:
        for name, (builder, tol) in sorted(PIPELINE_GOLDENS.items()):
            results.append(_golden_check(
                store, name, lambda b=builder: b(engine=engine), tol))
    return results


def _golden_check(store: GoldenStore, name: str,
                  builder: Callable[[], Dict[str, Any]],
                  tol: str) -> CheckResult:
    start = time.perf_counter()
    try:
        measured = builder()
        diff = store.check(name, measured, default_tolerance=tol,
                           description=f"verify golden {name}")
    except Exception as exc:
        return CheckResult(
            name=f"golden.{name}", status=STATUS_FAIL, tolerance=tol,
            detail=f"{type(exc).__name__}: {exc}",
            wall_time_s=time.perf_counter() - start)
    worst = max((q.max_relative_error for q in diff.quantities),
                default=0.0)
    return CheckResult(
        name=f"golden.{name}",
        status=STATUS_PASS if diff.passed else STATUS_FAIL,
        measured=worst, expected=f"within {tol!r} per quantity",
        tolerance=tol,
        detail=diff.render() if not diff.passed else
        f"{len(diff.quantities)} quantities within {tol!r} "
        f"(worst rel err {worst:.3e})",
        wall_time_s=time.perf_counter() - start)


def mms_checks(fast: bool = False) -> List[CheckResult]:
    """The convergence battery as check results."""
    out: List[CheckResult] = []
    start = time.perf_counter()
    for conv in all_mms_checks(fast=fast):
        now = time.perf_counter()
        out.append(_from_convergence(conv, now - start))
        start = now
    return out


def _from_convergence(conv: ConvergenceResult,
                      elapsed: float) -> CheckResult:
    lo, hi = conv.bounds
    return CheckResult(
        name=conv.name,
        status=STATUS_PASS if conv.passed else STATUS_FAIL,
        measured=conv.observed, expected=f"order in [{lo:g}, {hi:g}]",
        tolerance="convergence-order", detail=conv.render(),
        wall_time_s=elapsed)


def invariant_checks() -> List[CheckResult]:
    """The invariant battery (already timed internally)."""
    return all_invariant_checks()


def gate_checks(engine: Optional[Engine] = None,
                full: bool = False) -> List[CheckResult]:
    """Paper gates over a real flow.

    ``full`` runs the complete 14-cell x 4-variant library so the
    Figure 5 averages are defined; otherwise a reduced flow evaluates
    the flow-independent gates and skips the library averages.
    """
    from repro.flows.full_flow import run_full_flow
    engine = engine or default_engine()
    start = time.perf_counter()
    if full:
        flow = run_full_flow(engine=engine)
    else:
        from repro.cells.variants import DeviceVariant
        flow = run_full_flow(
            cells=["INV1X1"], variants=list(DeviceVariant),
            engine=engine)
    results = evaluate_gates(flow)
    elapsed = time.perf_counter() - start
    if results:
        results[0].wall_time_s = elapsed
    return results


def parity_checks(fast: bool = False,
                  modes: Optional[List[str]] = None) -> List[CheckResult]:
    """The cross-mode parity matrix.

    ``modes`` selects an explicit subset (overrides ``fast``) — how the
    CI chaos job runs just the durability scenarios
    (``interrupted-resumed``, ``concurrent-shared-cache``).
    """
    if modes is not None:
        return run_parity_matrix(modes=list(modes))
    return run_parity_matrix(modes=FAST_MODES if fast else None)


def run_suite(suite: str, store: Optional[GoldenStore] = None,
              engine: Optional[Engine] = None,
              parity_modes: Optional[List[str]] = None) -> VerifyReport:
    """Run one named suite into a :class:`VerifyReport`.

    Spans and metrics go to the active tracer (see
    :func:`repro.observe.activate`); ``python -m repro.verify --trace``
    scopes one to the suite.
    """
    if suite not in SUITES:
        from repro.errors import ReproError
        raise ReproError(
            f"unknown suite {suite!r}; expected one of "
            f"{', '.join(SUITES)}")
    report = VerifyReport(suite=suite)
    if suite in ("goldens", "fast", "all"):
        report.extend(golden_checks(store=store, engine=engine))
    if suite in ("mms", "fast", "all"):
        report.extend(mms_checks(fast=(suite == "fast")))
    if suite in ("invariants", "fast", "all"):
        report.extend(invariant_checks())
    if suite in ("gates", "fast", "all"):
        report.extend(gate_checks(engine=engine,
                                  full=(suite == "all")))
    if suite in ("parity", "fast", "all"):
        report.extend(parity_checks(fast=(suite == "fast"),
                                    modes=parity_modes))
    return report
