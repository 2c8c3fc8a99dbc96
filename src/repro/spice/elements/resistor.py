"""Linear resistor."""

from __future__ import annotations

from typing import Dict

from repro.errors import NetlistError
from repro.spice.elements.base import Element, Stamper


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

    def current(self, voltages: Dict[str, float]) -> float:
        """Current flowing n1 -> n2 [A]."""
        v1, v2 = self.terminal_voltages(voltages)
        return (v1 - v2) * self.conductance

    def stamp_static(self, stamper: Stamper, voltages: Dict[str, float],
                     time: float) -> None:
        stamper.stamp_conductance(self.nodes[0], self.nodes[1],
                                  self.conductance)
