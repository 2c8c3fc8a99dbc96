"""Golden-regression and numerical-verification subsystem.

Every later optimisation PR is judged against this package.  It pins
the pipeline's quantitative behaviour in four independent ways:

* **goldens** (:mod:`repro.verify.goldens`) — versioned, tolerance-aware
  snapshots of solver outputs, extraction fit errors and per-cell PPA
  numbers, committed under ``tests/goldens/`` and diffed with per-
  quantity relative errors against declared tolerance classes;
* **numerics** (:mod:`repro.verify.mms`,
  :mod:`repro.verify.invariants`) — method-of-manufactured-solutions
  checks and observed grid/timestep convergence orders for the TCAD and
  SPICE solvers, plus conservation and monotonicity invariants;
* **paper gates** (:mod:`repro.verify.paper_gates`) — machine-readable
  expectations transcribed from the SOCC 2023 paper (Table III error
  ceilings, Figure 5 PPA-delta windows, the 31 % substrate-area bound)
  evaluated from real ``run_full_flow`` artifacts;
* **parity matrix** (:mod:`repro.verify.parity`) — a reduced flow run
  across {serial, parallel} x {traced, untraced} x {cold, warm cache}
  x {fault-injected}, asserting bit-identical (or documented
  tolerance-equal) artifacts.

Two front ends share the same checks:

* CLI — ``python -m repro.verify --suite fast --report
  verify_report.json`` (suites: ``fast``, ``all``, ``goldens``,
  ``mms``, ``invariants``, ``gates``, ``parity``);
* pytest — markers ``golden``, ``mms`` and ``parity`` plus the
  ``--update-goldens`` / ``--allow-widen`` options installed by the
  :mod:`repro.verify.plugin` plugin.

Verification runs record into the active tracer (``--trace DIR`` on
the CLI, :func:`repro.observe.activate` in Python), so they emit the
same trace/metric artifacts as production runs.
"""

from repro.verify.goldens import GoldenDiff, GoldenStore, QuantityDiff, \
    default_golden_root
from repro.verify.mms import ConvergenceResult, observed_order
from repro.verify.paper_gates import PaperGate, paper_gates
from repro.verify.parity import PARITY_MATRIX, ParityCell, \
    run_parity_matrix
from repro.verify.report import CheckResult, VerifyReport
from repro.verify.tolerances import Tolerance, TOLERANCE_CLASSES, \
    tolerance_class

__all__ = [
    "CheckResult",
    "ConvergenceResult",
    "GoldenDiff",
    "GoldenStore",
    "PARITY_MATRIX",
    "PaperGate",
    "ParityCell",
    "QuantityDiff",
    "TOLERANCE_CLASSES",
    "Tolerance",
    "VerifyReport",
    "default_golden_root",
    "observed_order",
    "paper_gates",
    "run_parity_matrix",
    "tolerance_class",
]
