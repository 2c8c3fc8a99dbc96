"""Damped Newton iteration on the static MNA system, with rescues.

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

Raises :class:`ConvergenceError` with diagnostics when every rung
fails.  The deterministic fault injector (``convergence:newton``) can
force the damped rungs to fail — exercising the rescue ladder — or,
with ``fatal=1``, force the whole solve to fail: ``solve_dc``
propagates the error, the transient loop rejects the timestep.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.errors import ConvergenceError, SingularMatrixError
from repro.observe import get_tracer
from repro.resilience.faults import draw_fault
from repro.resilience.rescue import continue_solve
from repro.spice.mna import MnaAssembler

#: Maximum Newton iterations.
MAX_ITERATIONS = 120

#: Voltage update convergence threshold [V].
V_TOLERANCE = 1e-7

#: Maximum per-iteration voltage update (damping) [V].
MAX_STEP = 0.4

#: Extra node-to-ground conductances of the gmin-stepping rescue rung,
#: walked from nearly-linear down to the true system [S].
GMIN_LADDER = (1e-3, 1e-5, 1e-7, 1e-9, 1e-11)


def _damped_iteration(assembler: MnaAssembler, x0: np.ndarray, time: float,
                      extra_system: Optional[Callable], max_step: float,
                      iterations: int, scale: float = 1.0,
                      ) -> Tuple[np.ndarray, int, bool, float]:
    """One damped-Newton attempt with sources scaled by ``scale``:
    ``(x, iterations used, converged, last residual)``."""
    x = x0.copy()
    residual = float("inf")
    for i in range(iterations):
        matrix, rhs = assembler.assemble_static(x, time, scale)
        if extra_system is not None:
            extra_system(x, matrix, rhs)
        x_new = assembler.solve_system(matrix, rhs)
        delta = x_new - x
        residual = float(np.max(np.abs(delta))) if delta.size else 0.0
        if residual <= V_TOLERANCE:
            return x_new, i + 1, True, residual
        # Damp only node voltages; branch currents may move freely.
        step = delta.copy()
        n = assembler.n_nodes
        step[:n] = np.clip(step[:n], -max_step, max_step)
        x = x + step
    return x, iterations, False, residual


def _with_gmin(assembler: MnaAssembler, extra_system: Optional[Callable],
               gmin: float) -> Callable:
    """Wrap ``extra_system`` to add ``gmin`` from every node to ground."""
    def wrapped(x: np.ndarray, matrix: np.ndarray, rhs: np.ndarray) -> None:
        if extra_system is not None:
            extra_system(x, matrix, rhs)
        idx = np.arange(assembler.n_nodes)
        matrix[idx, idx] += gmin
    return wrapped


def _rescue_gmin(assembler: MnaAssembler, x0: np.ndarray, time: float,
                 extra_system: Optional[Callable],
                 ) -> Tuple[Optional[np.ndarray], int, float]:
    """Gmin stepping: heavy shunt conductance walked down to zero."""
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
    """Source continuation: ramp sources 0 -> 1 with adaptive steps."""
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


def newton_solve(assembler: MnaAssembler, x0: np.ndarray, time: float,
                 extra_system: Optional[Callable] = None,
                 site: str = "newton") -> np.ndarray:
    """Solve the nonlinear MNA system starting from ``x0``.

    ``extra_system(x, matrix, rhs)`` lets the transient integrator add
    its charge-companion terms, in place, to the freshly assembled
    static system.
    ``site`` names this solve for the fault injector (the transient
    loop uses ``"transient.newton"`` so injected faults can target
    timestep solves without touching the DC operating point).

    Tries the two damped rungs first; only when both fail (or an
    injected ``convergence`` fault forces them to) does the rescue
    ladder — gmin stepping, then source continuation — engage.  Raises
    :class:`ConvergenceError` with diagnostics when everything fails.
    """
    tracer = get_tracer()
    total_iterations = 0
    residual = float("inf")
    singular: Optional[SingularMatrixError] = None
    rule = draw_fault("convergence", site)
    if rule is not None and rule.fatal:
        raise ConvergenceError(
            rule.message or f"injected non-convergence at t={time:g}s "
                            f"({site})",
            iterations=0, residual=float("inf"))
    if rule is None:
        for max_step, iterations in ((MAX_STEP, MAX_ITERATIONS),
                                     (MAX_STEP / 8.0, 4 * MAX_ITERATIONS)):
            # A singular system on a damped rung is treated like
            # non-convergence: the gmin rescue's extra shunt
            # conductance regularises exactly-singular linearisations
            # (e.g. every transistor of a stage cut off at the current
            # estimate), so the ladder gets its chance before the
            # diagnosis propagates.
            try:
                x, used, converged, residual = _damped_iteration(
                    assembler, x0, time, extra_system, max_step, iterations)
            except SingularMatrixError as exc:
                singular = exc
                if tracer.enabled:
                    tracer.counter("spice.newton.singular_systems").inc()
                continue
            total_iterations += used
            if converged:
                _count_converged(tracer, total_iterations, residual)
                return x

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
