"""Transient analysis: backward-Euler / trapezoidal with breakpoints.

The time grid is built from a base step refined around source
breakpoints (pulse edges), where standard-cell waveforms actually move.
Each step solves the nonlinear system

    f_static(x) + (q(x) - q_prev) / dt = 0          (backward Euler)
    f_static(x) + 2 (q(x) - q_prev)/dt - i_prev = 0  (trapezoidal)

with the charge companion folded into the Newton iteration.

Timestep rejection: when the Newton solve of a step fails to converge
(sharp edges can defeat even the rescue ladder), the step is *rejected*
— retried at half the size, repeatedly, down to ``h / 2**MAX_HALVINGS``
— instead of aborting the whole waveform.  Output is still sampled on
the original grid, so a run that needs no rejections is bit-identical
to one computed before this mechanism existed, and rescued runs keep
the same result shape.  Rejections are counted in the trace
(``spice.transient.rejected_steps``).

The charges at the state a step converges to are evaluated once and
handed to the next step's first Newton iteration through a one-entry
memo keyed on the exact bytes of ``x``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConvergenceError, SimulationError
from repro.observe import get_tracer
from repro.spice.dcop import solve_dc
from repro.spice.elements.vsource import VoltageSource
from repro.spice.mna import MnaAssembler
from repro.spice.netlist import Circuit
from repro.spice.newton import newton_solve
from repro.spice.waveform import Waveform

#: Width of the refined window that follows every breakpoint [s].
EDGE_WINDOW = 1.5e-10

#: Refinement factor of the step inside edge windows.
EDGE_REFINE = 20

#: Maximum times one grid step may be halved before giving up.
MAX_HALVINGS = 7


@dataclass(frozen=True)
class TransientResult:
    """Sampled solution of a transient run."""

    times: np.ndarray
    node_voltages: Dict[str, np.ndarray]
    source_currents: Dict[str, np.ndarray]

    def waveform(self, node: str) -> Waveform:
        """Voltage waveform of a node."""
        if node == "0":
            return Waveform(self.times, np.zeros_like(self.times), "0")
        if node not in self.node_voltages:
            raise SimulationError(f"no node {node!r} in transient result")
        return Waveform(self.times, self.node_voltages[node], node)

    def current(self, source_name: str) -> Waveform:
        """Branch-current waveform of a voltage source."""
        if source_name not in self.source_currents:
            raise SimulationError(f"no source {source_name!r} in result")
        return Waveform(self.times, self.source_currents[source_name],
                        source_name)


def build_time_grid(t_stop: float, dt: float,
                    breakpoints: List[float]) -> np.ndarray:
    """Non-uniform grid: coarse ``dt`` plus refined edge windows."""
    if t_stop <= 0 or dt <= 0:
        raise SimulationError("t_stop and dt must be positive")
    points = set(np.arange(0.0, t_stop + dt / 2, dt).tolist())
    fine = dt / EDGE_REFINE
    for bp in breakpoints:
        if bp >= t_stop:
            continue
        window_end = min(bp + EDGE_WINDOW, t_stop)
        points.update(np.arange(bp, window_end, fine).tolist())
        points.add(bp)
    points.add(t_stop)
    points.add(0.0)
    grid = np.array(sorted(p for p in points if 0.0 <= p <= t_stop))
    # Drop near-duplicate points that would produce tiny steps.  Drop
    # the *earlier* point of each too-close pair so named times —
    # breakpoints and above all t_stop — always survive; dropping the
    # latter could silently end the grid just short of t_stop when a
    # refined window point lands within fine/1000 of it.
    keep = np.ones(grid.size, dtype=bool)
    small = np.diff(grid) <= fine * 1e-3
    keep[:-1][small] = False
    # t = 0 anchors the DC operating point: keep it and sacrifice a
    # near-duplicate successor instead.
    if grid.size > 1:
        keep[0] = True
        if small[0]:
            keep[1] = False
    return grid[keep]


def _memoised(evaluate: Callable[[np.ndarray], Tuple]) -> Callable:
    """One-entry memo of ``evaluate``, a pure function of ``x``, keyed
    on the exact bytes of ``x`` (+0.0 and -0.0 differ), so a hit returns
    exactly what a call would.  A hit hands back the same arrays, which
    the integrator only reads."""
    memo: List = [None, None]

    def at(x: np.ndarray) -> Tuple:
        key = x.tobytes()
        if key != memo[0]:
            memo[0], memo[1] = key, evaluate(x)
        return memo[1]
    return at


def transient(circuit: Circuit, t_stop: float, dt: float,
              method: str = "trap",
              record_nodes: Optional[List[str]] = None) -> TransientResult:
    """Run a transient analysis from the DC operating point at t = 0.

    Parameters
    ----------
    circuit:
        The circuit to simulate.
    t_stop:
        End time [s].
    dt:
        Base (coarse) step [s]; edges are refined automatically.
    method:
        ``"be"`` (backward Euler) or ``"trap"`` (trapezoidal).
    record_nodes:
        Subset of nodes to record (default: all); ground ``"0"`` records
        zeros.  Raises :class:`SimulationError` for unknown nodes.
    """
    if method not in ("be", "trap"):
        raise SimulationError(f"unknown integration method {method!r}")
    with get_tracer().span("spice.transient", method=method,
                           t_stop=t_stop, dt=dt) as tspan:
        result = _transient_traced(circuit, t_stop, dt, method,
                                   record_nodes, tspan)
    return result


def _transient_traced(circuit: Circuit, t_stop: float, dt: float,
                      method: str, record_nodes: Optional[List[str]],
                      tspan) -> TransientResult:
    assembler = MnaAssembler(circuit)
    nodes = record_nodes or circuit.nodes
    unknown = [node for node in nodes
               if node != "0" and node not in assembler.node_index]
    if unknown:
        raise SimulationError(f"record_nodes names unknown nodes {unknown}")

    # The state a step converges to is where the next step's first
    # Newton iteration evaluates the charges again.
    charges_at = _memoised(assembler.assemble_dynamic)

    breakpoints: List[float] = []
    sources = [e for e in circuit if isinstance(e, VoltageSource)]
    for source in sources:
        breakpoints.extend(source.breakpoints(t_stop))
    grid = build_time_grid(t_stop, dt, breakpoints)

    op = solve_dc(circuit, time=0.0)
    x = op.x
    q_prev, _ = charges_at(x)
    i_prev = np.zeros_like(q_prev)

    n_steps = len(grid)
    volts = {node: np.empty(n_steps) for node in nodes}
    currents = {s.name: np.empty(n_steps) for s in sources}

    def record(k: int, xk: np.ndarray) -> None:
        voltages = assembler.voltages_from(xk)
        for node in nodes:
            volts[node][k] = voltages.get(node, 0.0)
        for source in sources:
            currents[source.name][k] = assembler.branch_current(
                xk, source.name)

    def advance(x_from: np.ndarray, q_from: np.ndarray,
                i_from: np.ndarray, t_to: float):
        """One nonlinear solve advancing the state to ``t_to``."""
        t_from = float(t_cur[0])
        h = t_to - t_from
        coeff = 1.0 / h if method == "be" else 2.0 / h

        def charge_companion(x_est: np.ndarray, stamper) -> None:
            q, cap = charges_at(x_est)
            stamper.matrix += coeff * cap
            i_hist = coeff * q_from + (i_from if method == "trap" else 0.0)
            stamper.rhs += coeff * (cap @ x_est) - (coeff * q - i_hist)

        x_new = newton_solve(assembler, x_from, t_to,
                             extra_system=charge_companion,
                             site="transient.newton")
        q_new, _ = charges_at(x_new)
        i_new = (coeff * (q_new - q_from) - i_from if method == "trap"
                 else i_from)
        return x_new, q_new, i_new

    tracer = get_tracer()
    rejected_steps = 0
    record(0, x)
    t_cur = [0.0]
    for k in range(1, n_steps):
        t_k = grid[k]
        t_cur[0] = grid[k - 1]
        h_full = t_k - grid[k - 1]
        h_min = h_full / (2 ** MAX_HALVINGS)
        h = h_full
        # Sub-stepping engages only on rejection: the fault-free path
        # is a single advance to exactly grid[k] — bit-identical to the
        # rejection-free integrator.
        while True:
            t_target = t_k if t_cur[0] + h >= t_k - h_min * 1e-6 else \
                t_cur[0] + h
            try:
                x_new, q_new, i_new = advance(x, q_prev, i_prev, t_target)
            except ConvergenceError:
                if h / 2.0 < h_min:
                    raise
                h = h / 2.0
                rejected_steps += 1
                if tracer.enabled:
                    tracer.counter("spice.transient.rejected_steps").inc()
                    tracer.event("spice.transient.step_rejected",
                                 t=t_target, h=h)
                continue
            x, q_prev, i_prev = x_new, q_new, i_new
            t_cur[0] = t_target
            if t_target >= t_k:
                break
        record(k, x)

    if tracer.enabled:
        tspan.set(steps=n_steps, unknowns=assembler.n_unknowns,
                  rejected_steps=rejected_steps)
        tracer.counter("spice.transient.runs").inc()
        tracer.counter("spice.transient.timesteps").inc(n_steps)
        tracer.histogram("spice.transient.steps_per_run",
                         edges=(64, 128, 256, 512, 1024, 2048, 4096,
                                8192)).observe(n_steps)

    return TransientResult(
        times=grid,
        node_voltages=volts,
        source_currents=currents,
    )
