"""Linear capacitor (charge-based, exact for the integrator)."""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.errors import NetlistError
from repro.spice.elements.base import Element, Stamper


class Capacitor(Element):
    """Two-terminal linear capacitor.

    Contributes nothing to DC (open circuit) and a charge
    ``q = C (v1 - v2)`` to the transient system.
    """

    def __init__(self, name: str, n1: str, n2: str, capacitance: float):
        super().__init__(name, (n1, n2))
        if capacitance <= 0:
            raise NetlistError(
                f"{name}: capacitance must be positive, got {capacitance}")
        self.capacitance = float(capacitance)

    def charge(self, voltages: Dict[str, float]) -> float:
        """Stored charge q(v) [C] referenced to terminal n1."""
        v1, v2 = self.terminal_voltages(voltages)
        return self.capacitance * (v1 - v2)

    def stamp_dynamic(self, stamper: Stamper, voltages: Dict[str, float],
                      charge_vector: np.ndarray,
                      cap_matrix: np.ndarray) -> None:
        q = self.charge(voltages)
        r1 = stamper.row(self.nodes[0])
        r2 = stamper.row(self.nodes[1])
        c = self.capacitance
        if r1 is not None:
            charge_vector[r1] += q
            cap_matrix[r1, r1] += c
            if r2 is not None:
                cap_matrix[r1, r2] -= c
        if r2 is not None:
            charge_vector[r2] -= q
            cap_matrix[r2, r2] += c
            if r1 is not None:
                cap_matrix[r2, r1] -= c
