"""MNA system assembly shared by the DC and transient solvers.

The assembler works on a *batch* of K runs: circuits with the same
elements, nodes and MOSFET model instances, whose element values and
source waveforms may differ (the stimulus runs of one cell).  A single
circuit is the batch of one run.  Estimates are (K, n) arrays, one row
per run; assemblies return stacked (K, n, n) matrices and (K, n)
vectors, unstacked for a 1-D estimate.  :meth:`MnaAssembler.select`
gives the assembler of a sub-batch, so a solver can drop the runs that
are done.  The dense systems are solved with one stacked
``np.linalg.solve``, which calls LAPACK once per matrix, exactly as a
call on that matrix alone does (30 unknowns at most, MUX2X1 2D).

There is one stamping protocol: plans, then flat indices, then one
scatter.  The constructor turns every element's
:class:`~repro.spice.elements.base.StampPlan` into one flat index per
target array — matrix, rhs, charge vector and capacitance matrix — in
element-and-entry order, offset by ``run·n²`` into the stacked
matrices and ``run·n`` into the stacked vectors.  An assembly computes
the values as (rows, K) blocks — linear constants, source values (once
per ``(time, scale)``; ``scale`` is 1 except in Newton's source
continuation), capacitor charges and the MOSFETs' rows — gathers them
into that order and writes each target with one ``np.bincount``.
``bincount`` adds in input order from zero, as a ``+=`` per entry
does, so every entry sums its contributions in element order, bit for
bit.

Every MOSFET of the batch, n- and p-models together, is evaluated by
one ``ids_batch`` and one ``charges_batch`` call per assembly, on the
nominal and finite-difference points of every device in every run.
The constructor reads the models' parameters once, as it reads the
resistances and capacitances: one
:class:`~repro.compact.columns.DeviceColumns` in circuit order, whose
per-device columns broadcast against bias arrays holding one row of
points (finite-difference points by runs) per device.  The compact
model is elementwise, so each device's values are bit for bit those of
its own model called on its own points.
"""

from __future__ import annotations

import copy
from collections import Counter
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.compact.columns import DeviceColumns
from repro.errors import SimulationError, SingularMatrixError
from repro.observe import get_tracer
from repro.spice.netlist import Circuit
from repro.spice.elements.base import GROUND, StampPlan
from repro.spice.elements.capacitor import Capacitor
from repro.spice.elements.mosfet import FD_DELTA, Mosfet

#: Leak conductance from every node to ground — keeps cut-off transistor
#: networks non-singular, as real simulators do.
GMIN = 1e-12


def as_runs(x: np.ndarray) -> np.ndarray:
    """``x`` as a (K, n) batch: a 1-D estimate is the batch of one run."""
    return x[None] if x.ndim == 1 else x


def _extended(xs: np.ndarray) -> np.ndarray:
    """The runs' estimates as the columns of an (n + 1, K) array, with
    one trailing ground row (0 V)."""
    runs, n = xs.shape
    x_ext = np.zeros((n + 1, runs))
    x_ext[:n] = xs.T
    return x_ext


def _topology(circuit: Circuit) -> List[Tuple]:
    """What the runs of one batch must share: every element's type, name
    and nodes in circuit order, and each MOSFET's model instance."""
    return [(type(e), e.name, e.nodes,
             id(e.model) if isinstance(e, Mosfet) else None)
            for e in circuit]


def _per_run(rows: List[List[float]]) -> np.ndarray:
    """Per-run value lists as a (values, K) block."""
    return np.array(rows, dtype=float).reshape(len(rows), -1).T


def _pairs(values: np.ndarray) -> np.ndarray:
    """Rows ``value, -value`` of every row of ``values``, in turn."""
    return np.concatenate((values, -values), 1).reshape(-1, values.shape[1])


def _companions(devices: DeviceColumns, terminals: np.ndarray,
                x_ext: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gm, gds, ieq) of every MOSFET, each (m, K), from one
    ``ids_batch`` call, with ``ieq = ids - gm*vgs - gds*vds``; the
    (3, m) ``terminals`` index the devices' (drain, gate, source) in
    ``x_ext``.

    Each device's row of 5·K points is the blocks
    ``[vgs, vgs+d, vgs-d, vgs, vgs]`` against
    ``[vds, vds, vds, vds+d, vds-d]`` of its K runs: the nominal
    current, then central differences in vgs (gm) and in vds (gds).
    """
    d = FD_DELTA
    vd, vg, vs = x_ext[terminals]
    vgs, vds = vg - vs, vd - vs
    # ids[point, device, run]
    ids = devices.models[0].ids_batch(
        np.concatenate((vgs, vgs + d, vgs - d, vgs, vgs), 1),
        np.concatenate((vds, vds, vds, vds + d, vds - d), 1),
        devices=devices).reshape(len(vgs), 5, -1).transpose(1, 0, 2)
    gm, gds = (ids[1::2] - ids[2::2]) / (2.0 * d)
    return gm, gds, ids[0] - gm * vgs - gds * vds


def _charges(devices: DeviceColumns, terminals: np.ndarray,
             x_ext: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Charges q[terminal (g, d, s), device, run] of every MOSFET and
    their Jacobian [terminal, d/dv of (g, d, s), device, run], from one
    ``charges_batch`` call on each device's blocks ``[vgs, vgs+d, vgs]``
    against ``[vds, vds, vds+d]``; dq/dvs = -(dq/dvg + dq/dvd)."""
    d = FD_DELTA
    vd, vg, vs = x_ext[terminals]
    vgs, vds = vg - vs, vd - vs
    # q[terminal, point, device, run]
    q = np.array(devices.models[0].charges_batch(
        np.concatenate((vgs, vgs + d, vgs), 1),
        np.concatenate((vds, vds, vds + d), 1), devices=devices)
    ).reshape(3, len(vgs), 3, -1).transpose(0, 2, 1, 3)
    q0 = q[:, 0]
    jacobian = np.empty((3,) + q0.shape)
    jacobian[:, :2] = (q[:, 1:] - q0[:, None]) / d
    jacobian[:, 2] = -(jacobian[:, 0] + jacobian[:, 1])
    return q0, jacobian


class MnaAssembler:
    """Builds linearised MNA systems for a batch of runs.

    Parameters
    ----------
    circuits:
        One circuit, or a sequence of circuits that share their
        elements, nodes and MOSFET model instances (raises
        :class:`~repro.errors.SimulationError` otherwise).  Their
        structure, their resistances and capacitances and their MOSFETs'
        model parameters are read once, here; source waveforms are read
        per ``(time, scale)``.
    """

    def __init__(self, circuits: Union[Circuit, Sequence[Circuit]]):
        self.circuits = ([circuits] if isinstance(circuits, Circuit)
                         else list(circuits))
        if not self.circuits:
            raise SimulationError("an MNA batch needs at least one circuit")
        for circuit in self.circuits:
            circuit.validate()
        circuit = self.circuit = self.circuits[0]
        #: Runs in the batch (K).
        self.n_runs = len(self.circuits)
        topology = _topology(circuit)
        if any(_topology(other) != topology for other in self.circuits[1:]):
            raise SimulationError(
                "the circuits of one batch must share their elements, "
                "nodes and MOSFET model instances")
        self.node_index = circuit.node_index()
        self.branch_index = circuit.branch_index()
        n = self.n_unknowns = circuit.n_unknowns
        self.n_nodes = len(self.node_index)
        #: The node-voltage part of the diagonal of a raveled matrix.
        self._node_diagonal = slice(0, self.n_nodes * (n + 1), n + 1)
        #: Sub-batch assemblers made by :meth:`select`.
        self._selections: Dict[Tuple[int, ...], MnaAssembler] = {}
        #: Runs among the whole batch's, whose circuits and last
        #: ``[(time, scale), source rows]`` every sub-batch shares.
        self._columns = np.arange(self.n_runs)
        self._all_circuits = self.circuits
        self._sources_at: List = [None, None]

        # Value blocks per target: block 0 for the elements other than
        # MOSFETs, block 1 for the MOSFETs, each element's values
        # consecutive rows of its block.  Per target: ``entries`` holds
        # (slot, block, row) in element-and-entry order, ``self._at``
        # block 0's element positions; ``used`` counts block rows.
        targets = StampPlan._fields
        entries: Dict[str, List[Tuple]] = {target: [] for target in targets}
        self._at: Dict[str, List[int]] = {target: [] for target in targets}
        used: Counter = Counter()
        slots: List[Tuple[int, ...]] = []
        mosfets: List[int] = []
        for position, element in enumerate(circuit):
            rows = tuple(None if node == GROUND else self.node_index[node]
                         for node in element.nodes)
            slots.append(tuple(n if r is None else r for r in rows))
            plan = element.stamp_plan(rows,
                                      self.branch_index.get(element.name))
            block, counts = 0, (len(element.matrix_values()),
                                len(element.rhs_values(0.0, 1.0)), 0, 0)
            if isinstance(element, Mosfet):
                mosfets.append(position)
                block, counts = 1, Mosfet.value_counts
            elif isinstance(element, Capacitor):
                counts = (0, 0, 2, 2)
            for target, plan_entries, count in zip(targets, plan, counts):
                for *at, k in plan_entries:
                    slot = at[0] * n + at[1] if len(at) == 2 else at[0]
                    entries[target].append(
                        (slot, block, used[target, block] + k))
                used[target, block] += count
                if block == 0 and count:
                    self._at[target].append(position)

        self._plans: Dict[str, Tuple[np.ndarray, np.ndarray, int]] = {}
        for target, listed in entries.items():
            offsets = (0, used[target, 0])
            self._plans[target] = (
                np.array([offsets[b] + row for _, b, row in listed],
                         dtype=np.intp),
                np.array([slot for slot, _, _ in listed], dtype=np.intp),
                n * n if target in ("matrix", "cap") else n)
        #: Every MOSFET's model parameters, read once here as one
        #: column set in circuit order (None without MOSFETs), and the
        #: devices' (3, m) drain/gate/source slots.
        self._devices = (DeviceColumns([circuit.elements[p].model
                                        for p in mosfets])
                         if mosfets else None)
        self._terminals = np.array([slots[p] for p in mosfets],
                                   dtype=np.intp).reshape(-1, 3).T
        #: (2, capacitors) terminal slots of every capacitor.
        self._capacitor_terminals = np.array(
            [slots[p] for p in self._at["cap"]], dtype=np.intp
        ).reshape(-1, 2).T
        self._runs()

    def _runs(self) -> None:
        """Per-run constants as (rows, K) blocks, and flat indices."""
        self._linear = _per_run([[v for p in self._at["matrix"]
                                  for v in c.elements[p].matrix_values()]
                                 for c in self.circuits])
        self._capacitance = _per_run([[c.elements[p].capacitance
                                       for p in self._at["cap"]]
                                      for c in self.circuits])
        self._capacitance_rows = _pairs(self._capacitance)
        self._index = {
            target: (slots[:, None] + size * np.arange(self.n_runs)).ravel()
            for target, (_, slots, size) in self._plans.items()}

    def select(self, runs: Sequence[int]) -> "MnaAssembler":
        """The assembler of the sub-batch ``runs`` — distinct indices
        into this batch, in increasing order — sharing this one's plans.
        The whole batch is this assembler itself."""
        if len(runs) == self.n_runs:
            return self
        key = tuple(runs)
        sub = self._selections.get(key)
        if sub is None:
            sub = copy.copy(self)
            sub.n_runs = len(key)
            sub.circuits = [self.circuits[r] for r in key]
            sub.circuit = sub.circuits[0]
            sub._selections = {}
            sub._columns = self._columns[list(key)]
            sub._runs()
            self._selections[key] = sub
        return sub

    def voltages_from(self, x: np.ndarray) -> Dict[str, float]:
        """Node-voltage dict from one run's solution vector."""
        return {node: float(x[i]) for node, i in self.node_index.items()}

    def branch_current(self, x: np.ndarray, element_name: str) -> float:
        """Branch current of a voltage source from one run's solution
        vector."""
        return float(x[self.branch_index[element_name]])

    def _batch(self, x: np.ndarray) -> np.ndarray:
        xs = as_runs(x)
        if len(xs) != self.n_runs:
            raise SimulationError(
                f"{len(xs)} estimates for a batch of {self.n_runs} runs")
        return xs

    def _scatter(self, target: str, blocks: List) -> np.ndarray:
        """Every run's raveled ``target`` array, run after run: the rows
        of the concatenated value blocks gathered in element-and-entry
        order and added up with one ``bincount``."""
        order, _, size = self._plans[target]
        values = np.concatenate(blocks)[order]
        return np.bincount(self._index[target], values.ravel(),
                           size * self.n_runs)

    def _source_values(self, time: float, scale: float) -> np.ndarray:
        """Every source's rhs values in every run at ``(time, scale)``,
        computed for the whole batch once per ``(time, scale)``."""
        memo = self._sources_at
        if memo[0] != (time, scale):
            memo[:] = (time, scale), _per_run(
                [[v for p in self._at["rhs"]
                  for v in c.elements[p].rhs_values(time, scale)]
                 for c in self._all_circuits])
        return memo[1][:, self._columns]

    def assemble_static(self, x: np.ndarray, time: float,
                        scale: float = 1.0
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Linearised static systems ``(A, z)`` at the estimates x, every
        independent source multiplied by ``scale``."""
        xs = self._batch(x)
        runs, n = xs.shape
        x_ext = _extended(xs)
        matrix_blocks = [self._linear]
        rhs_blocks = [self._source_values(time, scale)]
        if self._devices is not None:
            matrix_rows, rhs_rows = Mosfet.stamp_static(
                *_companions(self._devices, self._terminals, x_ext))
            matrix_blocks.append(matrix_rows)
            rhs_blocks.append(rhs_rows)
        matrix = self._scatter("matrix", matrix_blocks)
        matrix.reshape(runs, n * n)[:, self._node_diagonal] += GMIN
        matrix = matrix.reshape(runs, n, n)
        rhs = self._scatter("rhs", rhs_blocks).reshape(runs, n)
        return (matrix[0], rhs[0]) if x.ndim == 1 else (matrix, rhs)

    def assemble_dynamic(self, x: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """Charge vectors q(x) and capacitance Jacobians C(x) = dq/dx."""
        xs = self._batch(x)
        runs, n = xs.shape
        x_ext = _extended(xs)
        t1, t2 = self._capacitor_terminals
        charge_blocks = [
            _pairs(self._capacitance * (x_ext[t1] - x_ext[t2]))]
        cap_blocks = [self._capacitance_rows]
        if self._devices is not None:
            charge_rows, cap_rows = Mosfet.stamp_dynamic(
                *_charges(self._devices, self._terminals, x_ext))
            charge_blocks.append(charge_rows)
            cap_blocks.append(cap_rows)
        charge = self._scatter("charge", charge_blocks).reshape(runs, n)
        cap = self._scatter("cap", cap_blocks).reshape(runs, n, n)
        return (charge[0], cap[0]) if x.ndim == 1 else (charge, cap)

    def solve_system(self, matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = z for every run: one stacked ``np.linalg.solve``
        on (K, n, n) and (K, n), or on one (n, n) system and its (n,)
        rhs.

        Raises :class:`~repro.errors.SingularMatrixError` (code
        ``spice.singular_matrix``) when a matrix is singular.  Its
        ``runs`` lists the singular rows of the batch and its
        ``solution`` holds every other row's solution, so a solver can
        fail those runs alone.
        """
        single = matrix.ndim == 2
        matrices, rhs = (matrix[None], rhs[None]) if single else (matrix, rhs)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter("spice.mna.solves").inc(len(matrices))
        try:
            x = np.linalg.solve(matrices, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            error = SingularMatrixError(
                f"singular MNA matrix ({exc}); check for floating "
                f"subcircuits or voltage-source loops")
            error.runs, error.solution = [], np.full_like(rhs, np.nan)
            for r in range(len(matrices)):
                try:
                    error.solution[r] = np.linalg.solve(
                        matrices[r:r + 1], rhs[r:r + 1, :, None])[0, :, 0]
                except np.linalg.LinAlgError:
                    error.runs.append(r)
            raise error from None
        return x[0] if single else x
