"""MNA system assembly shared by the DC and transient solvers.

Every Newton iteration stamps every element from scratch and solves the
dense system with ``np.linalg.solve``.  The largest committed netlist
(MUX2X1, 2D) has 30 unknowns, where LAPACK's dense solve is as cheap as
any sparse factorisation.

There is one stamping protocol.  The constructor asks every element
for its :class:`~repro.spice.elements.base.StampPlan`: integer
positions into matrix, rhs, charge vector and capacitance matrix,
ground dropped.  Each assembly then computes only values and writes
them through the plans, element by element in circuit order, so every
matrix entry sums its contributions in element order.  Independent
sources are multiplied by the assembly's ``scale`` (1 except in
Newton's source-continuation rescue).

MOSFETs are evaluated per *model group* — the devices sharing one
compact-model instance (n-top and p-bottom in a library cell): one
``ids_batch`` call on the nominal and finite-difference points of every
device of the group, and one ``charges_batch`` call likewise.  The
compact model is elementwise, so each device's values are bit for bit
those of a call on its own points.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compact.model import BsimSoi4Lite
from repro.errors import SingularMatrixError
from repro.observe import get_tracer
from repro.spice.netlist import Circuit
from repro.spice.elements.base import GROUND, Element, StampPlan
from repro.spice.elements.mosfet import FD_DELTA, Mosfet

#: Leak conductance from every node to ground — keeps cut-off transistor
#: networks non-singular, as real simulators do.
GMIN = 1e-12

#: The value of the trailing ground slot appended to ``x``.
_GROUND_VOLTAGE = np.zeros(1)


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
        """(vgs, vds) of every member."""
        vd, vg, vs = x_ext[self.terminals]
        return vg - vs, vd - vs


class MnaAssembler:
    """Builds linearised MNA systems for a circuit.

    Parameters
    ----------
    circuit:
        The circuit to assemble.  Its elements, nodes and MOSFET models
        are read once, here; waveforms of sources may change between
        assemblies.
    """

    def __init__(self, circuit: Circuit):
        circuit.validate()
        self.circuit = circuit
        self.node_index = circuit.node_index()
        self.branch_index = circuit.branch_index()
        self.n_unknowns = circuit.n_unknowns
        self.n_nodes = len(self.node_index)
        #: The node-voltage part of the diagonal of the raveled matrix.
        self._node_diagonal = slice(0, self.n_nodes * (self.n_unknowns + 1),
                                    self.n_unknowns + 1)

        ground_slot = self.n_unknowns
        #: (element, plan, MOSFET position or None) of every element
        #: with static entries, in element order.
        self._static: List[Tuple[Element, StampPlan, Optional[int]]] = []
        #: The same for dynamic entries, with the element's node
        #: indices into ``x`` extended by one trailing ground slot.
        self._dynamic: List[Tuple[Element, StampPlan, Tuple[int, ...],
                                  Optional[int]]] = []
        self._n_mosfets = 0
        groups: Dict[int, Tuple[BsimSoi4Lite, List[int], List[Tuple]]] = {}
        for element in circuit:
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
                self._static.append((element, plan, k))
            if plan.charge or plan.cap:
                self._dynamic.append((element, plan, terminals, k))
        self._groups = [
            _ModelGroup(model, members, np.array(slots, dtype=np.intp).T)
            for model, members, slots in groups.values()]

    # ------------------------------------------------------------------
    # vector <-> dict conversions
    # ------------------------------------------------------------------
    def voltages_from(self, x: np.ndarray) -> Dict[str, float]:
        """Node-voltage dict from a solution vector."""
        return {node: float(x[i]) for node, i in self.node_index.items()}

    def branch_current(self, x: np.ndarray, element_name: str) -> float:
        """Branch current of a voltage source from a solution vector."""
        return float(x[self.branch_index[element_name]])

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def assemble_static(self, x: np.ndarray, time: float,
                        scale: float = 1.0
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Linearised static system ``(A, z)`` at estimate x, every
        independent source multiplied by ``scale``."""
        n = self.n_unknowns
        matrix = np.zeros((n, n))
        rhs = np.zeros(n)
        devices = self._companions(np.concatenate((x, _GROUND_VOLTAGE)))
        for element, plan, k in self._static:
            values = (element.static_values(time, scale) if k is None
                      else devices[k])
            element.stamp_static(matrix, rhs, plan, *values)
        matrix.ravel()[self._node_diagonal] += GMIN
        return matrix, rhs

    def assemble_dynamic(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Charge vector q(x) and capacitance Jacobian C(x) = dq/dx."""
        n = self.n_unknowns
        charge = np.zeros(n)
        cap = np.zeros((n, n))
        x_ext = np.concatenate((x, _GROUND_VOLTAGE))
        devices = self._charges(x_ext)
        voltages = x_ext.tolist()
        for element, plan, terminals, k in self._dynamic:
            values = (element.dynamic_values(voltages, terminals)
                      if k is None else devices[k])
            element.stamp_dynamic(charge, cap, plan, *values)
        return charge, cap

    # ------------------------------------------------------------------
    # grouped device evaluation
    # ------------------------------------------------------------------
    def _companions(self, x_ext: np.ndarray
                    ) -> List[Tuple[Sequence[float], Sequence[float]]]:
        """``((gm, -gm, gds, -gds), (-ieq, ieq))`` of every MOSFET, one
        ``ids_batch`` per group, with ``ieq = ids - gm*vgs - gds*vds``.

        Each group's 5n points are laid out as blocks
        ``[vgs, vgs+d, vgs-d, vgs, vgs]`` against
        ``[vds, vds, vds, vds+d, vds-d]``: the nominal current, then
        central differences in vgs (gm) and in vds (gds).
        """
        d = FD_DELTA
        values: List = [None] * self._n_mosfets
        for group in self._groups:
            vgs, vds = group.bias(x_ext)
            ids = group.model.ids_batch(
                np.concatenate((vgs, vgs + d, vgs - d, vgs, vgs)),
                np.concatenate((vds, vds, vds, vds + d, vds - d)),
            ).reshape(5, vgs.size)
            gm = (ids[1] - ids[2]) / (2.0 * d)
            gds = (ids[3] - ids[4]) / (2.0 * d)
            ieq = ids[0] - gm * vgs - gds * vds
            for k, g, o, i in zip(group.members, gm.tolist(), gds.tolist(),
                                  ieq.tolist()):
                values[k] = ((g, -g, o, -o), (-i, i))
        return values

    def _charges(self, x_ext: np.ndarray) -> List[Tuple[list, list]]:
        """((qg, qd, qs), row-major dq/dv) of every MOSFET, one
        ``charges_batch`` per group on blocks ``[vgs, vgs+d, vgs]``
        against ``[vds, vds, vds+d]``; dq/dvs = -(dq/dvg + dq/dvd)."""
        d = FD_DELTA
        values: List = [None] * self._n_mosfets
        for group in self._groups:
            vgs, vds = group.bias(x_ext)
            n = vgs.size
            # q[terminal (g, d, s), point, device]
            q = np.concatenate(group.model.charges_batch(
                np.concatenate((vgs, vgs + d, vgs)),
                np.concatenate((vds, vds, vds + d)))).reshape(3, 3, n)
            q0 = q[:, 0]
            # jacobian[terminal, d/dv of (g, d, s), device]
            jacobian = np.empty((3, 3, n))
            jacobian[:, 0] = (q[:, 1] - q0) / d
            jacobian[:, 1] = (q[:, 2] - q0) / d
            jacobian[:, 2] = -(jacobian[:, 0] + jacobian[:, 1])
            for k, point in zip(group.members, zip(
                    q0.T.tolist(), jacobian.reshape(9, n).T.tolist())):
                values[k] = point
        return values

    def solve_system(self, matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = z, diagnosing singular systems.

        Raises :class:`~repro.errors.SingularMatrixError` (code
        ``spice.singular_matrix``) when the matrix is singular.
        """
        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter("spice.mna.solves").inc()
        try:
            return np.linalg.solve(matrix, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(
                f"singular MNA matrix ({exc}); check for floating "
                f"subcircuits or voltage-source loops") from None
