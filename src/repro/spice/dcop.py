"""DC operating-point analysis."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.spice.mna import MnaAssembler
from repro.spice.netlist import Circuit
from repro.spice.newton import newton_solve


@dataclass(frozen=True)
class OperatingPoint:
    """Result of a DC solve.

    Attributes
    ----------
    voltages:
        Node name -> voltage [V].
    branch_currents:
        Voltage-source name -> current [A] (positive into the + node).
    x:
        Raw solution vector (for warm-starting transient).
    """

    voltages: Dict[str, float]
    branch_currents: Dict[str, float]
    x: np.ndarray

    def voltage(self, node: str) -> float:
        """Voltage of one node (ground returns 0)."""
        if node == "0":
            return 0.0
        return self.voltages[node]

    def current(self, source_name: str) -> float:
        """Branch current of one voltage source."""
        return self.branch_currents[source_name]


def _package(assembler: MnaAssembler, x: np.ndarray) -> OperatingPoint:
    currents = {name: float(x[row])
                for name, row in assembler.branch_index.items()}
    return OperatingPoint(assembler.voltages_from(x), currents, x)


def solve_dc(circuit: Union[Circuit, Sequence[Circuit]], time: float = 0.0,
             x0: Optional[np.ndarray] = None,
             ) -> Union[OperatingPoint, List[OperatingPoint]]:
    """Find the DC operating point (sources evaluated at ``time``).

    One :func:`newton_solve` from ``x0`` (zeros by default); its rescue
    ladder already ends in source continuation, so a
    :class:`ConvergenceError` it raises propagates unchanged.  A
    sequence of same-topology circuits is solved as one batch and gives
    a list of operating points, in order; the first failing run's error
    propagates.
    """
    assembler = MnaAssembler(circuit)
    x = np.zeros((assembler.n_runs, assembler.n_unknowns))
    if x0 is not None:
        x[:] = x0
    points = [_package(assembler, row)
              for row in newton_solve(assembler, x, time)]
    return points[0] if isinstance(circuit, Circuit) else points
