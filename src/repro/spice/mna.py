"""MNA system assembly shared by the DC and transient solvers.

The assembler works on a *batch* of K runs: circuits with the same
elements, nodes and MOSFET model instances, whose element values and
source waveforms may differ (the stimulus runs of one cell).  A single
circuit is the batch of one run.  Estimates are (K, n) arrays, one row
per run, and every assembly returns stacked (K, n, n) matrices and
(K, n) vectors; a 1-D estimate is read as the batch of one run and
gets unstacked results.  :meth:`MnaAssembler.select` gives the
assembler of a sub-batch, sharing every plan, so a solver can drop the
runs that are done.

Every Newton iteration stamps every element from scratch and solves
the dense systems with one stacked ``np.linalg.solve``, which calls
LAPACK once per matrix, exactly as a call on that matrix alone does.
The largest committed netlist (MUX2X1, 2D) has 30 unknowns, where
LAPACK's dense solve is as cheap as any sparse factorisation.

There is one stamping protocol.  The constructor asks every element
for its :class:`~repro.spice.elements.base.StampPlan`: integer
positions into matrix, rhs, charge vector and capacitance matrix,
ground dropped.  Each assembly then computes only values and writes
them through the plans, run by run and element by element in circuit
order, so every matrix entry sums its contributions in element order.
Independent sources are multiplied by the assembly's ``scale`` (1
except in Newton's source-continuation rescue).

MOSFETs are evaluated per *model group* — the devices sharing one
compact-model instance (n-top and p-bottom in a library cell): one
``ids_batch`` call on the nominal and finite-difference points of every
device of the group in every run, and one ``charges_batch`` call
likewise.  The compact model is elementwise, so each device's values
are bit for bit those of a call on its own points.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.compact.model import BsimSoi4Lite
from repro.errors import SimulationError, SingularMatrixError
from repro.observe import get_tracer
from repro.spice.netlist import Circuit
from repro.spice.elements.base import GROUND, StampPlan
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


def _stacked(arrays: List[np.ndarray]) -> np.ndarray:
    """The runs' arrays stacked; one run's array is viewed, not copied.

    Each run stamps into arrays of its own: a scalar ``+=`` into a
    standalone array is about half again as fast as into a view of a
    stacked one.
    """
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def _topology(circuit: Circuit) -> List[Tuple]:
    """What the runs of one batch must share: every element's type, name
    and nodes in circuit order, and each MOSFET's model instance."""
    return [(type(e), e.name, e.nodes,
             id(e.model) if isinstance(e, Mosfet) else None)
            for e in circuit]


class _ModelGroup:
    """The MOSFETs of one circuit that share a model instance."""

    __slots__ = ("model", "members", "terminals")

    def __init__(self, model: BsimSoi4Lite, members: List[int],
                 terminals: np.ndarray):
        self.model = model
        #: Positions of the devices among the circuit's MOSFETs.
        self.members = members
        #: (3, n) indices of (drain, gate, source) into ``x`` extended
        #: by one trailing ground slot.
        self.terminals = terminals

    def bias(self, x_ext: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(vgs, vds) of every member (row) in every run (column)."""
        vd, vg, vs = x_ext[self.terminals]
        return vg - vs, vd - vs


class MnaAssembler:
    """Builds linearised MNA systems for a batch of runs.

    Parameters
    ----------
    circuits:
        One circuit, or a sequence of circuits that share their
        elements, nodes and MOSFET model instances (raises
        :class:`~repro.errors.SimulationError` otherwise).  Their
        structure is read once, here; element values and source
        waveforms are read per assembly, run by run.
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
        self.n_unknowns = circuit.n_unknowns
        self.n_nodes = len(self.node_index)
        #: The node-voltage part of the diagonal of a raveled matrix.
        self._node_diagonal = slice(0, self.n_nodes * (self.n_unknowns + 1),
                                    self.n_unknowns + 1)
        #: Sub-batch assemblers made by :meth:`select`.
        self._selections: Dict[Tuple[int, ...], MnaAssembler] = {}

        ground_slot = self.n_unknowns
        # (element position, plan, MOSFET position or None) of every
        # element with static entries, in element order; the same for
        # dynamic entries, with the element's node indices into ``x``
        # extended by one trailing ground slot.
        static: List[Tuple[int, StampPlan, Optional[int]]] = []
        dynamic: List[Tuple[int, StampPlan, Tuple[int, ...],
                            Optional[int]]] = []
        self._n_mosfets = 0
        groups: Dict[int, Tuple[BsimSoi4Lite, List[int], List[Tuple]]] = {}
        for position, element in enumerate(circuit):
            rows = tuple(None if n == GROUND else self.node_index[n]
                         for n in element.nodes)
            terminals = tuple(ground_slot if r is None else r for r in rows)
            plan = element.stamp_plan(rows,
                                      self.branch_index.get(element.name))
            k = None
            if isinstance(element, Mosfet):
                k = self._n_mosfets
                self._n_mosfets += 1
                _, members, slots = groups.setdefault(
                    id(element.model), (element.model, [], []))
                members.append(k)
                slots.append(terminals)
            if plan.matrix or plan.rhs:
                static.append((position, plan, k))
            if plan.charge or plan.cap:
                dynamic.append((position, plan, terminals, k))
        #: Per run, (element, plan, MOSFET position or None) of every
        #: element with static entries, in element order.
        self._static = []
        #: Per run, the same for dynamic entries, with the terminals.
        self._dynamic = []
        for c in self.circuits:
            elements = c.elements
            self._static.append([(elements[position], plan, k)
                                 for position, plan, k in static])
            self._dynamic.append([(elements[position], plan, terminals, k)
                                  for position, plan, terminals, k
                                  in dynamic])
        self._groups = [
            _ModelGroup(model, members, np.array(slots, dtype=np.intp).T)
            for model, members, slots in groups.values()]

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
            sub._static = [self._static[r] for r in key]
            sub._dynamic = [self._dynamic[r] for r in key]
            sub._selections = {}
            self._selections[key] = sub
        return sub

    # ------------------------------------------------------------------
    # vector <-> dict conversions
    # ------------------------------------------------------------------
    def voltages_from(self, x: np.ndarray) -> Dict[str, float]:
        """Node-voltage dict from one run's solution vector."""
        return {node: float(x[i]) for node, i in self.node_index.items()}

    def branch_current(self, x: np.ndarray, element_name: str) -> float:
        """Branch current of a voltage source from one run's solution
        vector."""
        return float(x[self.branch_index[element_name]])

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def _batch(self, x: np.ndarray) -> np.ndarray:
        xs = as_runs(x)
        if len(xs) != self.n_runs:
            raise SimulationError(
                f"{len(xs)} estimates for a batch of {self.n_runs} runs")
        return xs

    def assemble_static(self, x: np.ndarray, time: float,
                        scale: float = 1.0
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Linearised static systems ``(A, z)`` at the estimates x, every
        independent source multiplied by ``scale``."""
        xs = self._batch(x)
        runs, n = xs.shape
        matrices, rhss = [], []
        devices = self._companions(_extended(xs))
        for stamps, values_of in zip(self._static, devices):
            a, z = np.zeros((n, n)), np.zeros(n)
            for element, plan, k in stamps:
                values = (element.static_values(time, scale) if k is None
                          else values_of[k])
                element.stamp_static(a, z, plan, *values)
            matrices.append(a)
            rhss.append(z)
        matrix, rhs = _stacked(matrices), _stacked(rhss)
        matrix.reshape(runs, n * n)[:, self._node_diagonal] += GMIN
        return (matrix[0], rhs[0]) if x.ndim == 1 else (matrix, rhs)

    def assemble_dynamic(self, x: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """Charge vectors q(x) and capacitance Jacobians C(x) = dq/dx."""
        xs = self._batch(x)
        n = xs.shape[1]
        charges, caps = [], []
        x_ext = _extended(xs)
        devices = self._charges(x_ext)
        for stamps, voltages, values_of in zip(
                self._dynamic, x_ext.T.tolist(), devices):
            q, c = np.zeros(n), np.zeros((n, n))
            for element, plan, terminals, k in stamps:
                values = (element.dynamic_values(voltages, terminals)
                          if k is None else values_of[k])
                element.stamp_dynamic(q, c, plan, *values)
            charges.append(q)
            caps.append(c)
        charge, cap = _stacked(charges), _stacked(caps)
        return (charge[0], cap[0]) if x.ndim == 1 else (charge, cap)

    # ------------------------------------------------------------------
    # grouped device evaluation
    # ------------------------------------------------------------------
    def _companions(self, x_ext: np.ndarray
                    ) -> List[List[Tuple[Sequence[float], Sequence[float]]]]:
        """Per run, ``((gm, -gm, gds, -gds), (-ieq, ieq))`` of every
        MOSFET, one ``ids_batch`` per group over every run, with
        ``ieq = ids - gm*vgs - gds*vds``.

        Each group's (5·n, K) points are laid out as blocks
        ``[vgs, vgs+d, vgs-d, vgs, vgs]`` against
        ``[vds, vds, vds, vds+d, vds-d]`` of n device rows each: the
        nominal current, then central differences in vgs (gm) and in
        vds (gds).
        """
        d = FD_DELTA
        runs = x_ext.shape[1]
        values: List[List] = [[None] * self._n_mosfets for _ in range(runs)]
        for group in self._groups:
            vgs, vds = group.bias(x_ext)
            ids = group.model.ids_batch(
                np.concatenate((vgs, vgs + d, vgs - d, vgs, vgs)),
                np.concatenate((vds, vds, vds, vds + d, vds - d)),
            ).reshape((5,) + vgs.shape)
            gm = (ids[1] - ids[2]) / (2.0 * d)
            gds = (ids[3] - ids[4]) / (2.0 * d)
            ieq = ids[0] - gm * vgs - gds * vds
            for out, gm_run, gds_run, ieq_run in zip(
                    values, gm.T.tolist(), gds.T.tolist(), ieq.T.tolist()):
                for k, g, o, i in zip(group.members, gm_run, gds_run,
                                      ieq_run):
                    out[k] = ((g, -g, o, -o), (-i, i))
        return values

    def _charges(self, x_ext: np.ndarray) -> List[List[Tuple[list, list]]]:
        """Per run, ((qg, qd, qs), row-major dq/dv) of every MOSFET, one
        ``charges_batch`` per group over every run on blocks
        ``[vgs, vgs+d, vgs]`` against ``[vds, vds, vds+d]``;
        dq/dvs = -(dq/dvg + dq/dvd)."""
        d = FD_DELTA
        runs = x_ext.shape[1]
        values: List[List] = [[None] * self._n_mosfets for _ in range(runs)]
        for group in self._groups:
            vgs, vds = group.bias(x_ext)
            n = len(vgs)
            # q[terminal (g, d, s), point, device, run]
            q = np.concatenate(group.model.charges_batch(
                np.concatenate((vgs, vgs + d, vgs)),
                np.concatenate((vds, vds, vds + d)),
            )).reshape(3, 3, n, runs)
            q0 = q[:, 0]
            # jacobian[terminal, d/dv of (g, d, s), device, run]
            jacobian = np.empty((3, 3, n, runs))
            jacobian[:, 0] = (q[:, 1] - q0) / d
            jacobian[:, 1] = (q[:, 2] - q0) / d
            jacobian[:, 2] = -(jacobian[:, 0] + jacobian[:, 1])
            for out, charges, derivatives in zip(
                    values, q0.transpose(2, 1, 0).tolist(),
                    jacobian.reshape(9, n, runs).transpose(2, 1, 0).tolist()):
                for k, point in zip(group.members,
                                    zip(charges, derivatives)):
                    out[k] = point
        return values

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
