"""Element interface and the MNA stamper.

Every element linearises itself around the current solution estimate and
*stamps* companion conductances/currents into the system:

* :meth:`Element.stamp_static` — resistive currents and their Jacobian
  (used by DC and transient alike);
* :meth:`Element.stamp_dynamic` — terminal charges and their capacitance
  Jacobian (used by the transient integrator only).

The :class:`Stamper` hides matrix indexing: elements talk in node names.
Ground ("0") maps to no row/column.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import NetlistError

GROUND = "0"


class Stamper:
    """Accumulates the linearised MNA system A x = z.

    ``x`` is [node voltages..., branch currents...].  For the transient
    integrator a separate charge vector / capacitance matrix is built with
    the same indexing.
    """

    def __init__(self, node_index: Dict[str, int],
                 branch_index: Dict[str, int], n_unknowns: int):
        self.node_index = node_index
        self.branch_index = branch_index
        self.matrix = np.zeros((n_unknowns, n_unknowns))
        self.rhs = np.zeros(n_unknowns)

    def row(self, node: str) -> Optional[int]:
        """Matrix row of a node, or None for ground."""
        if node == GROUND:
            return None
        try:
            return self.node_index[node]
        except KeyError:
            raise NetlistError(f"unknown node {node!r}") from None

    def branch_row(self, element_name: str) -> int:
        """Matrix row of an element's branch-current unknown."""
        try:
            return self.branch_index[element_name]
        except KeyError:
            raise NetlistError(
                f"element {element_name!r} has no branch unknown") from None

    # ------------------------------------------------------------------
    # primitive stamps
    # ------------------------------------------------------------------
    def add_matrix(self, row_node: str, col_node: str, value: float) -> None:
        """A[row, col] += value (no-op if either maps to ground)."""
        r = self.row(row_node)
        c = self.row(col_node)
        if r is not None and c is not None:
            self.matrix[r, c] += value

    def add_matrix_rowcol(self, r: Optional[int], c: Optional[int],
                          value: float) -> None:
        """Raw-index variant (rows may be branch rows)."""
        if r is not None and c is not None:
            self.matrix[r, c] += value

    def add_rhs(self, node: str, value: float) -> None:
        """z[row(node)] += value."""
        r = self.row(node)
        if r is not None:
            self.rhs[r] += value

    def add_rhs_row(self, r: Optional[int], value: float) -> None:
        """Raw-index right-hand-side stamp."""
        if r is not None:
            self.rhs[r] += value

    # ------------------------------------------------------------------
    # composite stamps
    # ------------------------------------------------------------------
    def stamp_conductance(self, n1: str, n2: str, g: float) -> None:
        """Two-terminal conductance between n1 and n2."""
        self.add_matrix(n1, n1, g)
        self.add_matrix(n2, n2, g)
        self.add_matrix(n1, n2, -g)
        self.add_matrix(n2, n1, -g)

    def stamp_current(self, n_from: str, n_to: str, i: float) -> None:
        """Independent current i flowing from n_from to n_to."""
        self.add_rhs(n_from, -i)
        self.add_rhs(n_to, i)

    def stamp_transconductance(self, out_p: str, out_n: str,
                               ctrl_p: str, ctrl_n: str, gm: float) -> None:
        """Current gm * (v(ctrl_p) - v(ctrl_n)) flowing out_p -> out_n."""
        for out, sign in ((out_p, 1.0), (out_n, -1.0)):
            self.add_matrix(out, ctrl_p, sign * gm)
            self.add_matrix(out, ctrl_n, -sign * gm)


class Element:
    """Base class for all circuit elements."""

    #: Number of extra (branch-current) unknowns this element adds.
    n_branch = 0

    def __init__(self, name: str, nodes: Sequence[str]):
        if not name:
            raise NetlistError("element needs a non-empty name")
        self.name = name
        self.nodes: Tuple[str, ...] = tuple(nodes)
        if len(self.nodes) < 2:
            raise NetlistError(f"{name}: element needs at least two nodes")

    # ------------------------------------------------------------------
    # voltage helpers
    # ------------------------------------------------------------------
    @staticmethod
    def node_voltage(voltages: Dict[str, float], node: str) -> float:
        """Voltage of a node (ground is 0 by definition)."""
        if node == GROUND:
            return 0.0
        return voltages.get(node, 0.0)

    def terminal_voltages(self, voltages: Dict[str, float]) -> List[float]:
        """Voltages of this element's terminals, in node order."""
        return [self.node_voltage(voltages, n) for n in self.nodes]

    # ------------------------------------------------------------------
    # stamping interface
    # ------------------------------------------------------------------
    def stamp_static(self, stamper: Stamper, voltages: Dict[str, float],
                     time: float) -> None:
        """Stamp resistive (memoryless) behaviour; default: nothing."""

    def stamp_dynamic(self, stamper: Stamper, voltages: Dict[str, float],
                      charge_vector: np.ndarray,
                      cap_matrix: np.ndarray) -> None:
        """Accumulate terminal charges and capacitance Jacobian."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} {self.nodes}>"
