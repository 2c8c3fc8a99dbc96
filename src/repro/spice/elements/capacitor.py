"""Linear capacitor (charge-based, exact for the integrator)."""

from __future__ import annotations

from repro.errors import NetlistError
from repro.spice.elements.base import Element, StampPlan, without_ground


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

    def stamp_plan(self, rows, branch) -> StampPlan:
        """``+q`` on n1's row and ``-q`` on n2's; ``+C`` on both
        diagonals, ``-C`` off them: charge ``k`` indexes ``(q, -q)``
        with ``q = C (v1 - v2)`` and cap ``k`` ``(C, -C)``, which the
        assembler computes for every capacitor at once."""
        r1, r2 = rows
        return StampPlan(
            charge=without_ground(((r1, 0), (r2, 1))),
            cap=without_ground(
                ((r1, r1, 0), (r1, r2, 1), (r2, r2, 0), (r2, r1, 1))))
