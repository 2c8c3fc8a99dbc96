"""Transient analysis: backward-Euler / trapezoidal with breakpoints.

The time grid is built from a base step refined around source
breakpoints (pulse edges), where standard-cell waveforms actually move.
Each step solves the nonlinear system

    f_static(x) + (q(x) - q_prev) / dt = 0          (backward Euler)
    f_static(x) + 2 (q(x) - q_prev)/dt - i_prev = 0  (trapezoidal)

with the charge companion folded into the Newton iteration.

Lockstep runs: :func:`transient` takes one circuit or a batch of runs
— circuits with the same elements, nodes, MOSFET model instances and
source breakpoints, such as the stimulus runs of one cell — and
integrates the batch on its one shared time grid.  The t = 0 operating
points are one batched DC solve, and every step is one batched Newton
solve (:mod:`repro.spice.newton`): per iteration, one static and one
dynamic assembly (one compact-model call each, for every MOSFET of
every run still iterating) and one stacked linear solve.  Each run
does exactly the arithmetic it does alone, so its waveforms are bit
for bit those of a transient of that circuit alone.

Timestep rejection: when the Newton solve of a run's step fails to
converge (sharp edges can defeat even the rescue ladder), that run's
step is *rejected* — retried at half the size, repeatedly, down to
``h / 2**MAX_HALVINGS`` — instead of aborting the whole waveform; the
other runs are not touched, and the run rejoins the batch at the next
grid point.  Output is still sampled on the original grid, so a run
that needs no rejections is bit-identical to one computed before this
mechanism existed, and rescued runs keep the same result shape.
Rejections are counted in the trace (``spice.transient.rejected_steps``).

The charges at the state a run's step converges to are evaluated once
and handed to the next step's first Newton iteration through a
one-entry memo per run, keyed on the exact bytes of the run's ``x``;
the runs that miss the memo are evaluated in one batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConvergenceError, SimulationError
from repro.observe import get_tracer
from repro.spice.dcop import solve_dc
from repro.spice.elements.vsource import VoltageSource
from repro.spice.mna import MnaAssembler
from repro.spice.netlist import Circuit
from repro.spice.newton import solve_runs
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


def _memoised(evaluate: Callable[[np.ndarray, np.ndarray], Tuple]
              ) -> Callable:
    """Per-run one-entry memo of ``evaluate(runs, xs)`` — a pure
    function of each run's row of ``xs`` giving stacked (q, C) — keyed
    on the exact bytes of that row (+0.0 and -0.0 differ), so a hit
    returns exactly what a call would.  The runs that miss are
    evaluated in one call.  When every run's entry is its row of one
    evaluation of exactly these runs, that evaluation is handed back
    as it is; the integrator only reads it."""
    #: run -> (key, (q, C) of the evaluation, the run's row in it)
    memo: Dict[int, Tuple[bytes, Tuple, int]] = {}

    def at(runs: np.ndarray, xs: np.ndarray) -> Tuple:
        names = runs.tolist()
        keys = [x.tobytes() for x in xs]
        missed = [j for j, r in enumerate(names)
                  if memo.get(r, (None,))[0] != keys[j]]
        if len(missed) == len(names):
            fresh = evaluate(runs, xs)
            for j, r in enumerate(names):
                memo[r] = (keys[j], fresh, j)
            return fresh
        if missed:
            fresh = evaluate(runs[missed], xs[missed])
            for i, j in enumerate(missed):
                memo[names[j]] = (keys[j], fresh, i)
        entries = [memo[r] for r in names]
        whole = entries[0][1]
        if len(whole[0]) == len(entries) and all(
                entry[1] is whole and entry[2] == j
                for j, entry in enumerate(entries)):
            return whole
        return tuple(np.array([entry[1][part][entry[2]]
                               for entry in entries]) for part in (0, 1))
    return at


def transient(circuit: Union[Circuit, Sequence[Circuit]], t_stop: float,
              dt: float, method: str = "trap",
              record_nodes: Optional[List[str]] = None,
              ) -> Union[TransientResult, List[TransientResult]]:
    """Run a transient analysis from the DC operating point at t = 0.

    Parameters
    ----------
    circuit:
        The circuit to simulate, or a sequence of runs integrated in
        lockstep — circuits with the same elements, nodes, MOSFET model
        instances and source breakpoints (raises
        :class:`SimulationError` otherwise); then the result is a list,
        in run order.
    t_stop:
        End time [s].
    dt:
        Base (coarse) step [s]; edges are refined automatically.
    method:
        ``"be"`` (backward Euler) or ``"trap"`` (trapezoidal).
    record_nodes:
        Subset of nodes to record (default: all), in every run; ground
        ``"0"`` records zeros.  Raises :class:`SimulationError` for
        unknown nodes.
    """
    if method not in ("be", "trap"):
        raise SimulationError(f"unknown integration method {method!r}")
    circuits = [circuit] if isinstance(circuit, Circuit) else list(circuit)
    with get_tracer().span("spice.transient", method=method,
                           t_stop=t_stop, dt=dt,
                           runs=len(circuits)) as tspan:
        results = _transient_traced(circuits, t_stop, dt, method,
                                    record_nodes, tspan)
    return results[0] if isinstance(circuit, Circuit) else results


def _transient_traced(circuits: List[Circuit], t_stop: float, dt: float,
                      method: str, record_nodes: Optional[List[str]],
                      tspan) -> List[TransientResult]:
    assembler = MnaAssembler(circuits)
    nodes = record_nodes or assembler.circuit.nodes
    unknown = [node for node in nodes
               if node != "0" and node not in assembler.node_index]
    if unknown:
        raise SimulationError(f"record_nodes names unknown nodes {unknown}")

    # The state a step converges to is where the next step's first
    # Newton iteration evaluates the charges again.
    charges_at = _memoised(
        lambda runs, xs: assembler.select(runs).assemble_dynamic(xs))

    breakpoints = [[bp for e in c if isinstance(e, VoltageSource)
                    for bp in e.breakpoints(t_stop)] for c in circuits]
    if any(points != breakpoints[0] for points in breakpoints[1:]):
        raise SimulationError(
            "the runs of one transient must share their source breakpoints")
    grid = build_time_grid(t_stop, dt, breakpoints[0])

    all_runs = np.arange(assembler.n_runs)
    x = np.stack([op.x for op in solve_dc(circuits, time=0.0)])
    q_prev = charges_at(all_runs, x)[0].copy()
    i_prev = np.zeros_like(q_prev)

    n_steps = len(grid)
    # Every run's state at every grid point.
    history = np.empty((n_steps,) + x.shape)
    history[0] = x

    def advance(runs: np.ndarray, t_from: float, t_to: float
                ) -> Tuple[np.ndarray, List]:
        """One batched nonlinear solve advancing ``runs`` from ``t_from``
        to ``t_to``: the runs that failed, and their errors."""
        h = t_to - float(t_from)
        coeff = 1.0 / h if method == "be" else 2.0 / h
        # The whole batch is read and written through a slice (views).
        at = slice(None) if runs.size == len(x) else runs
        q_from, i_from = q_prev[at], i_prev[at]
        i_hist = coeff * q_from + (i_from if method == "trap" else 0.0)

        def charge_companion(rows: np.ndarray, x_est: np.ndarray,
                             matrix: np.ndarray, rhs: np.ndarray) -> None:
            whole = rows.size == runs.size
            q, cap = charges_at(runs if whole else runs[rows], x_est)
            matrix += coeff * cap
            rhs += coeff * (cap @ x_est[..., None])[..., 0] - (
                coeff * q - (i_hist if whole else i_hist[rows]))

        x_new, errors = solve_runs(assembler.select(runs), x[at], t_to,
                                   extra_system=charge_companion,
                                   site="transient.newton")
        failed = [j for j, error in enumerate(errors) if error is not None]
        done, q_old, i_old = runs, q_from, i_from
        if failed:
            ok = np.ones(runs.size, dtype=bool)
            ok[failed] = False
            at = done = runs[ok]
            x_new, q_old, i_old = x_new[ok], q_from[ok], i_from[ok]
        if done.size:
            q_new, _ = charges_at(done, x_new)
            x[at] = x_new
            i_prev[at] = (coeff * (q_new - q_old) - i_old
                          if method == "trap" else i_old)
            q_prev[at] = q_new
        return runs[failed], [errors[j] for j in failed]

    tracer = get_tracer()
    rejected_steps = 0
    for k in range(1, n_steps):
        t_k = grid[k]
        h_full = t_k - grid[k - 1]
        h_min = h_full / (2 ** MAX_HALVINGS)
        # Sub-stepping engages only on rejection: the fault-free path
        # is a single advance of every run to exactly grid[k] —
        # bit-identical to the rejection-free integrator.  Each entry
        # is (runs, time reached, step size).
        pending = [(all_runs, grid[k - 1], h_full)]
        while pending:
            runs, t_from, h = pending.pop()
            t_target = t_k if t_from + h >= t_k - h_min * 1e-6 else \
                t_from + h
            failed, errors = advance(runs, t_from, t_target)
            for error in errors:
                if not isinstance(error, ConvergenceError) or \
                        h / 2.0 < h_min:
                    raise error
            if failed.size:
                rejected_steps += failed.size
                if tracer.enabled:
                    tracer.counter("spice.transient.rejected_steps").inc(
                        failed.size)
                    for _ in failed:
                        tracer.event("spice.transient.step_rejected",
                                     t=t_target, h=h / 2.0)
                pending.append((failed, t_from, h / 2.0))
            if t_target < t_k and failed.size < runs.size:
                pending.append((np.setdiff1d(runs, failed), t_target, h))
        history[k] = x

    if tracer.enabled:
        tspan.set(steps=n_steps, unknowns=assembler.n_unknowns,
                  rejected_steps=rejected_steps)
        tracer.counter("spice.transient.runs").inc(assembler.n_runs)
        tracer.counter("spice.transient.timesteps").inc(
            n_steps * assembler.n_runs)
        steps_per_run = tracer.histogram(
            "spice.transient.steps_per_run",
            edges=(64, 128, 256, 512, 1024, 2048, 4096, 8192))
        for _ in range(assembler.n_runs):
            steps_per_run.observe(n_steps)

    sources = [e.name for e in assembler.circuit
               if isinstance(e, VoltageSource)]
    return [TransientResult(
        times=grid.copy(),
        node_voltages={node: (np.zeros(n_steps) if node == "0" else
                              history[:, r, assembler.node_index[node]].copy())
                       for node in nodes},
        source_currents={name: history[:, r,
                                       assembler.branch_index[name]].copy()
                         for name in sources})
        for r in range(assembler.n_runs)]
