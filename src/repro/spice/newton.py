"""Damped Newton iteration on the static MNA system, with rescues.

Every solve is over a batch of runs (:mod:`repro.spice.mna`); a single
circuit is the batch of one.  The damped rungs iterate the batch in
lockstep — one assembly, one grouped device evaluation and one stacked
linear solve per iteration for every run still iterating — and each
run leaves the batch at the iteration where its own update falls
within ``V_TOLERANCE``, so it does exactly the iterations, and the
arithmetic, it does alone.

The solve is a ladder: each rung only runs after the previous one
failed, so circuits that converge on the first rung (everything the
paper's flow produces) take *exactly* the same arithmetic path as
before the ladder existed — bit-identical artefacts.

1. lightly damped Newton (the fast path);
2. strongly damped Newton (sharp transition regions can limit-cycle
   between two linearisations);
3. gmin stepping: solve with a large extra conductance from every node
   to ground (nearly linear), then walk it down to zero, warm-starting
   each solve from the last;
4. source continuation: ramp every independent source, voltage and
   current, from zero (where the solution is trivial) to its full
   value at the solve's time, via
   :func:`repro.resilience.rescue.continue_solve`, the adaptive
   continuation primitive.  The ramp is a scale factor the assembler
   applies to the sources' rhs values; the circuit is not touched.

Failures stay per run.  A run whose damped rungs fail goes through the
rescue ladder (rungs 3 and 4) alone; a singular linear system fails
only its own run's rung.  :func:`solve_runs` reports each run's
outcome; :func:`newton_solve` raises the first failing run's error —
:class:`ConvergenceError` with diagnostics when every rung fails.  The
deterministic fault injector (``convergence:newton``) is drawn once per
run per solve and can force that run's damped rungs to fail —
exercising the rescue ladder — or, with ``fatal=1``, fail the run's
whole solve: ``solve_dc`` propagates the error, the transient loop
rejects that run's timestep.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.errors import ConvergenceError, ReproError, SingularMatrixError
from repro.observe import get_tracer
from repro.resilience.faults import draw_fault
from repro.resilience.rescue import continue_solve
from repro.spice.mna import MnaAssembler, as_runs

#: Maximum Newton iterations.
MAX_ITERATIONS = 120

#: Voltage update convergence threshold [V].
V_TOLERANCE = 1e-7

#: Maximum per-iteration voltage update (damping) [V].
MAX_STEP = 0.4

#: Extra node-to-ground conductances of the gmin-stepping rescue rung,
#: walked from nearly-linear down to the true system [S].
GMIN_LADDER = (1e-3, 1e-5, 1e-7, 1e-9, 1e-11)


def _for_runs(extra_system: Optional[Callable], runs: np.ndarray,
              size: int) -> Optional[Callable]:
    """``extra_system`` of a batch of ``size`` runs, seen from its
    sub-batch ``runs``."""
    if extra_system is None or len(runs) == size:
        return extra_system
    return lambda rows, *system: extra_system(runs[rows], *system)


def _damped_batch(assembler: MnaAssembler, x0: np.ndarray, time: float,
                  extra_system: Optional[Callable], max_step: float,
                  iterations: int, scale: float = 1.0):
    """One damped-Newton attempt over the batch ``x0`` (K, n) with
    sources scaled by ``scale``.

    Each run leaves at its own convergence, or when its linear system
    is singular.  Returns the estimates (K, n) and, per run, the
    iterations used, whether it converged, its last residual and the
    :class:`SingularMatrixError` that stopped it (or None).
    """
    runs = len(x0)
    x = x0.copy()
    used = [iterations] * runs
    converged = [False] * runs
    residual = [float("inf")] * runs
    singular: List[Optional[SingularMatrixError]] = [None] * runs
    n = assembler.n_nodes
    # The runs still iterating, their estimates and last residuals.
    active, xa, res = np.arange(runs), x0, residual
    for i in range(iterations):
        batch = assembler.select(active)
        matrix, rhs = batch.assemble_static(xa, time, scale)
        if extra_system is not None:
            extra_system(active, xa, matrix, rhs)
        try:
            x_new = batch.solve_system(matrix, rhs)
        except SingularMatrixError as exc:
            ok = np.ones(active.size, dtype=bool)
            ok[exc.runs] = False
            for r in active[~ok].tolist():
                singular[r] = exc
            active, xa, x_new = active[ok], xa[ok], exc.solution[ok]
            if not active.size:
                break
        delta = x_new - xa
        res = (np.abs(delta).max(axis=1).tolist() if delta.shape[1]
               else [0.0] * active.size)
        # Damp only node voltages; branch currents may move freely.
        nodes = delta[:, :n]
        np.clip(nodes, -max_step, max_step, out=nodes)
        xa = xa + delta
        done = [value <= V_TOLERANCE for value in res]
        if any(done):
            left = []
            for j, r in enumerate(active.tolist()):
                if done[j]:
                    x[r] = x_new[j]
                    used[r] = i + 1
                    converged[r] = True
                    residual[r] = res[j]
                else:
                    left.append(j)
            if not left:
                break
            active, xa, res = active[left], xa[left], [res[j] for j in left]
    else:
        # Out of iterations: the runs still iterating did not converge.
        for j, r in enumerate(active.tolist()):
            x[r] = xa[j]
            residual[r] = res[j]
    return x, used, converged, residual, singular


def _damped_iteration(assembler: MnaAssembler, x0: np.ndarray, time: float,
                      extra_system: Optional[Callable], max_step: float,
                      iterations: int, scale: float = 1.0,
                      ) -> Tuple[np.ndarray, int, bool, float]:
    """:func:`_damped_batch` for a batch of one run, ``x0`` (n,):
    ``(x, iterations used, converged, last residual)``; raises the
    run's :class:`SingularMatrixError`."""
    x, used, converged, residual, singular = _damped_batch(
        assembler, x0[None], time, extra_system, max_step, iterations,
        scale)
    if singular[0] is not None:
        raise singular[0]
    return x[0], used[0], converged[0], residual[0]


def _with_gmin(assembler: MnaAssembler, extra_system: Optional[Callable],
               gmin: float) -> Callable:
    """Wrap ``extra_system`` to add ``gmin`` from every node to ground."""
    def wrapped(runs: np.ndarray, x: np.ndarray, matrix: np.ndarray,
                rhs: np.ndarray) -> None:
        if extra_system is not None:
            extra_system(runs, x, matrix, rhs)
        idx = np.arange(assembler.n_nodes)
        matrix[:, idx, idx] += gmin
    return wrapped


def _rescue_gmin(assembler: MnaAssembler, x0: np.ndarray, time: float,
                 extra_system: Optional[Callable],
                 ) -> Tuple[Optional[np.ndarray], int, float]:
    """Gmin stepping of one run: heavy shunt conductance walked down to
    zero."""
    x = x0.copy()
    total = 0
    residual = float("inf")
    for gmin in GMIN_LADDER:
        x, used, converged, residual = _damped_iteration(
            assembler, x, time, _with_gmin(assembler, extra_system, gmin),
            MAX_STEP / 8.0, MAX_ITERATIONS)
        total += used
        if not converged:
            return None, total, residual
    x, used, converged, residual = _damped_iteration(
        assembler, x, time, extra_system, MAX_STEP / 8.0,
        2 * MAX_ITERATIONS)
    total += used
    return (x if converged else None), total, residual


def _rescue_source(assembler: MnaAssembler, x0: np.ndarray, time: float,
                   extra_system: Optional[Callable],
                   ) -> Tuple[Optional[np.ndarray], int, float]:
    """Source continuation of one run: ramp sources 0 -> 1 with
    adaptive steps."""
    counters = {"iterations": 0, "residual": float("inf")}

    def solve_at(factor: float, warm: Optional[np.ndarray]) -> np.ndarray:
        x_init = warm if warm is not None else np.zeros_like(x0)
        x, used, converged, residual = _damped_iteration(
            assembler, x_init, time, extra_system, MAX_STEP / 8.0,
            MAX_ITERATIONS, scale=factor)
        counters["iterations"] += used
        counters["residual"] = residual
        if not converged:
            raise ConvergenceError(
                f"source continuation failed at factor {factor:.3f}",
                iterations=used, residual=residual)
        return x

    try:
        outcome = continue_solve(solve_at, target=1.0, start=0.0)
    except ConvergenceError:
        return None, counters["iterations"], counters["residual"]
    return outcome.solution, counters["iterations"], counters["residual"]


def _count_converged(tracer, total_iterations: int, residual: float) -> None:
    if tracer.enabled:
        tracer.counter("spice.newton.solves").inc()
        tracer.counter("spice.newton.iterations").inc(total_iterations)
        tracer.histogram("spice.newton.iterations_per_solve").observe(
            total_iterations)
        tracer.gauge("spice.newton.last_residual").set(residual)


def _rescue(assembler: MnaAssembler, x0: np.ndarray, time: float,
            extra_system: Optional[Callable], total_iterations: int,
            residual: float, singular: Optional[SingularMatrixError],
            ) -> np.ndarray:
    """The rescue ladder of one run whose damped rungs failed (or were
    skipped): the solution, or the run's error raised."""
    tracer = get_tracer()
    for rung, rescue in (("gmin", _rescue_gmin),
                         ("source", _rescue_source)):
        try:
            x, used, rescue_residual = rescue(assembler, x0, time,
                                              extra_system)
        except SingularMatrixError as exc:
            singular = exc
            continue
        total_iterations += used
        if np.isfinite(rescue_residual):
            residual = rescue_residual
        if x is not None:
            if tracer.enabled:
                tracer.counter("spice.newton.rescues").inc()
                tracer.counter(f"spice.newton.rescues.{rung}").inc()
                tracer.event("spice.newton.rescue", rung=rung, t=time,
                             iterations=total_iterations)
            _count_converged(tracer, total_iterations, rescue_residual)
            return x

    if singular is not None:
        # Every rung failed and at least one saw a singular system:
        # the structural diagnosis (floating subcircuit, source loop)
        # is more actionable than a generic non-convergence.
        raise singular
    raise ConvergenceError(
        f"Newton failed at t={time:g}s", iterations=total_iterations,
        residual=residual)


def solve_runs(assembler: MnaAssembler, x0: np.ndarray, time: float,
               extra_system: Optional[Callable] = None,
               site: str = "newton",
               ) -> Tuple[np.ndarray, List[Optional[ReproError]]]:
    """Solve the nonlinear MNA systems of a batch, starting from ``x0``
    (K, n).

    Returns the solutions (K, n) and, per run, None or the error the
    run's solve raises alone (its row of the solutions is then
    meaningless).

    ``extra_system(runs, x, matrix, rhs)`` lets the transient
    integrator add its charge-companion terms, in place, to the freshly
    assembled static systems; ``runs`` gives the batch row of each of
    the systems passed.  ``site`` names this solve for the fault
    injector (the transient loop uses ``"transient.newton"`` so
    injected faults can target timestep solves without touching the DC
    operating point).
    """
    tracer = get_tracer()
    x = x0.copy()
    runs = len(x)
    errors: List[Optional[ReproError]] = [None] * runs
    total_iterations = [0] * runs
    residual = [float("inf")] * runs
    singular: List[Optional[SingularMatrixError]] = [None] * runs
    solved = [False] * runs
    pending = []
    for r in range(runs):
        rule = draw_fault("convergence", site)
        if rule is None:
            pending.append(r)
        elif rule.fatal:
            errors[r] = ConvergenceError(
                rule.message or f"injected non-convergence at t={time:g}s "
                                f"({site})",
                iterations=0, residual=float("inf"))
    for max_step, iterations in ((MAX_STEP, MAX_ITERATIONS),
                                 (MAX_STEP / 8.0, 4 * MAX_ITERATIONS)):
        if not pending:
            break
        rows = np.array(pending)
        xs, used, converged, res, failed = _damped_batch(
            assembler.select(rows), x0 if len(rows) == runs else x0[rows],
            time, _for_runs(extra_system, rows, runs), max_step, iterations)
        for j, r in enumerate(pending):
            # A singular system on a damped rung is treated like
            # non-convergence: the gmin rescue's extra shunt
            # conductance regularises exactly-singular linearisations
            # (e.g. every transistor of a stage cut off at the current
            # estimate), so the ladder gets its chance before the
            # diagnosis propagates.
            if failed[j] is not None:
                singular[r] = failed[j]
                if tracer.enabled:
                    tracer.counter("spice.newton.singular_systems").inc()
                continue
            total_iterations[r] += used[j]
            residual[r] = res[j]
            if converged[j]:
                x[r] = xs[j]
                solved[r] = True
                _count_converged(tracer, total_iterations[r], residual[r])
        pending = [r for j, r in enumerate(pending) if not converged[j]]

    for r in range(runs):
        if solved[r] or errors[r] is not None:
            continue
        one = np.array([r])
        try:
            x[r] = _rescue(assembler.select(one), x0[r], time,
                           _for_runs(extra_system, one, runs),
                           total_iterations[r], residual[r], singular[r])
        except ReproError as exc:
            errors[r] = exc
    return x, errors


def newton_solve(assembler: MnaAssembler, x0: np.ndarray, time: float,
                 extra_system: Optional[Callable] = None,
                 site: str = "newton") -> np.ndarray:
    """Solve the nonlinear MNA systems starting from ``x0`` — (K, n),
    or one run's (n,) — and return the solutions in the same shape.

    Tries the two damped rungs first; only for a run where both fail
    (or an injected ``convergence`` fault forces them to) does the
    rescue ladder — gmin stepping, then source continuation — engage.
    Raises the first failing run's error (:class:`ConvergenceError`
    with diagnostics when everything fails).  See :func:`solve_runs`
    for ``extra_system`` and ``site``.
    """
    x, errors = solve_runs(assembler, as_runs(x0), time, extra_system, site)
    for error in errors:
        if error is not None:
            raise error
    return x[0] if x0.ndim == 1 else x
