"""Linear resistor."""

from __future__ import annotations

from repro.errors import NetlistError
from repro.spice.elements.base import Element, StampPlan, without_ground


class Resistor(Element):
    """Two-terminal linear resistor.

    Parameters
    ----------
    name:
        Unique element name (conventionally ``R...``).
    n1, n2:
        Terminal nodes.
    resistance:
        Ohms; must be positive.
    """

    def __init__(self, name: str, n1: str, n2: str, resistance: float):
        super().__init__(name, (n1, n2))
        if resistance <= 0:
            raise NetlistError(
                f"{name}: resistance must be positive, got {resistance}")
        self.resistance = float(resistance)

    @property
    def conductance(self) -> float:
        """1/R [S]."""
        return 1.0 / self.resistance

    def stamp_plan(self, rows, branch) -> StampPlan:
        """``+g`` on both diagonals, ``-g`` off them."""
        r1, r2 = rows
        return StampPlan(matrix=without_ground(
            ((r1, r1, 0), (r2, r2, 0), (r1, r2, 1), (r2, r1, 1))))

    def matrix_values(self):
        g = self.conductance
        return g, -g
