"""MNA system assembly shared by the DC and transient solvers.

Every Newton iteration stamps every element from scratch and solves the
dense system with ``np.linalg.solve``.  The largest committed netlist
(MUX2X1, 2D) has 30 unknowns, where LAPACK's dense solve is as cheap as
any sparse factorisation.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import SingularMatrixError
from repro.observe import get_tracer
from repro.spice.netlist import Circuit
from repro.spice.elements.base import Stamper

#: Leak conductance from every node to ground — keeps cut-off transistor
#: networks non-singular, as real simulators do.
GMIN = 1e-12


class MnaAssembler:
    """Builds linearised MNA systems for a circuit.

    Parameters
    ----------
    circuit:
        The circuit to assemble.
    """

    def __init__(self, circuit: Circuit):
        circuit.validate()
        self.circuit = circuit
        self.node_index = circuit.node_index()
        self.branch_index = circuit.branch_index()
        self.n_unknowns = circuit.n_unknowns
        self.n_nodes = len(self.node_index)

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
        for element in self.circuit:
            element.stamp_static(stamper, voltages, time)
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
        for element in self.circuit:
            element.stamp_dynamic(stamper, voltages, charge, cap)
        return charge, cap

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

    Used by the source-stepping fallback: at factor 0 the circuit is
    trivially solvable, and the solution continues smoothly to factor 1.
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
