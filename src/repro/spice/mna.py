"""MNA system assembly shared by the DC and transient solvers.

Every Newton iteration stamps every element from scratch and solves the
dense system with ``np.linalg.solve``.  The largest committed netlist
(MUX2X1, 2D) has 30 unknowns, where LAPACK's dense solve is as cheap as
any sparse factorisation.

MOSFETs are evaluated per *model group* — the devices sharing one
compact-model instance (n-top and p-bottom in a library cell): one
``ids_batch`` call on the nominal and finite-difference points of every
device of the group, and one ``charges_batch`` call likewise.  The
compact model is elementwise, so each device's values are bit for bit
those of a call on its own points.  The stamps are then written in
element order, each device through :meth:`Mosfet.stamp_static` /
:meth:`Mosfet.stamp_dynamic` at integer positions fixed in the
constructor, so every matrix entry sums its contributions in the same
order as an element-by-element evaluation would.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.compact.model import BsimSoi4Lite
from repro.errors import SingularMatrixError
from repro.observe import get_tracer
from repro.spice.netlist import Circuit
from repro.spice.elements.base import GROUND, Element, Stamper
from repro.spice.elements.mosfet import FD_DELTA, Mosfet, MosfetStamps

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

        def row(node: str) -> Optional[int]:
            return None if node == GROUND else self.node_index[node]

        ground_slot = self.n_unknowns
        #: Every element with its MOSFET position (None: not a MOSFET).
        self._elements: List[Tuple[Element, Optional[int]]] = []
        #: Stamp positions of each MOSFET, in element order.
        self._plans: List[MosfetStamps] = []
        groups: Dict[int, Tuple[BsimSoi4Lite, List[int], List[Tuple]]] = {}
        for element in circuit:
            if not isinstance(element, Mosfet):
                self._elements.append((element, None))
                continue
            k = len(self._plans)
            self._plans.append(element.stamp_plan(row))
            self._elements.append((element, k))
            _, members, slots = groups.setdefault(
                id(element.model), (element.model, [], []))
            members.append(k)
            slots.append(tuple(ground_slot if n == GROUND
                               else self.node_index[n]
                               for n in element.nodes))
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
    def assemble_static(self, x: np.ndarray, time: float) -> Stamper:
        """Stamp all static (memoryless) element behaviour at estimate x."""
        stamper = Stamper(self.node_index, self.branch_index,
                          self.n_unknowns)
        voltages = self.voltages_from(x)
        values = self._companions(x)
        for element, k in self._elements:
            if k is None:
                element.stamp_static(stamper, voltages, time)
            else:
                element.stamp_static(stamper, self._plans[k], *values[k])
        for i in range(self.n_nodes):
            stamper.matrix[i, i] += GMIN
        return stamper

    def assemble_dynamic(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Charge vector q(x) and capacitance Jacobian C(x) = dq/dx."""
        stamper = Stamper(self.node_index, self.branch_index,
                          self.n_unknowns)
        voltages = self.voltages_from(x)
        charge = np.zeros(self.n_unknowns)
        cap = np.zeros((self.n_unknowns, self.n_unknowns))
        values = self._charges(x)
        for element, k in self._elements:
            if k is None:
                element.stamp_dynamic(stamper, voltages, charge, cap)
            else:
                element.stamp_dynamic(charge, cap, self._plans[k],
                                      *values[k])
        return charge, cap

    # ------------------------------------------------------------------
    # grouped device evaluation
    # ------------------------------------------------------------------
    def _companions(self, x: np.ndarray) -> List[Tuple[float, float, float]]:
        """(gm, gds, ieq) of every MOSFET, one ``ids_batch`` per group.

        Each group's 5n points are laid out as blocks
        ``[vgs, vgs+d, vgs-d, vgs, vgs]`` against
        ``[vds, vds, vds, vds+d, vds-d]``: the nominal current, then
        central differences in vgs (gm) and in vds (gds).
        """
        x_ext = np.concatenate((x, _GROUND_VOLTAGE))
        d = FD_DELTA
        values: List = [None] * len(self._plans)
        for group in self._groups:
            vgs, vds = group.bias(x_ext)
            ids = group.model.ids_batch(
                np.concatenate((vgs, vgs + d, vgs - d, vgs, vgs)),
                np.concatenate((vds, vds, vds, vds + d, vds - d)),
            ).reshape(5, vgs.size)
            gm = (ids[1] - ids[2]) / (2.0 * d)
            gds = (ids[3] - ids[4]) / (2.0 * d)
            ieq = ids[0] - gm * vgs - gds * vds
            for k, point in zip(group.members, zip(
                    gm.tolist(), gds.tolist(), ieq.tolist())):
                values[k] = point
        return values

    def _charges(self, x: np.ndarray) -> List[Tuple[list, list]]:
        """((qg, qd, qs), row-major dq/dv) of every MOSFET, one
        ``charges_batch`` per group on blocks ``[vgs, vgs+d, vgs]``
        against ``[vds, vds, vds+d]``; dq/dvs = -(dq/dvg + dq/dvd)."""
        x_ext = np.concatenate((x, _GROUND_VOLTAGE))
        d = FD_DELTA
        values: List = [None] * len(self._plans)
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


def scale_sources(circuit: Circuit, factor: float) -> "ScaledSourceContext":
    """Context manager scaling all voltage sources (source stepping)."""
    return ScaledSourceContext(circuit, factor)


class ScaledSourceContext:
    """Temporarily replaces VoltageSource waveforms with scaled DC values.

    Used by Newton's source-continuation rung: at factor 0 the circuit
    is trivially solvable, and the solution continues smoothly to factor 1.
    """

    def __init__(self, circuit: Circuit, factor: float):
        self.circuit = circuit
        self.factor = factor
        self._saved: Dict[str, object] = {}

    def __enter__(self) -> "ScaledSourceContext":
        from repro.spice.elements.vsource import VoltageSource

        for element in self.circuit:
            if isinstance(element, VoltageSource):
                self._saved[element.name] = element.waveform
                element.waveform = element.value(0.0) * self.factor
        return self

    def __exit__(self, *exc_info) -> Optional[bool]:
        for name, waveform in self._saved.items():
            self.circuit.element(name).waveform = waveform
        return None
