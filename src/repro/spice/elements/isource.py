"""Independent current source."""

from __future__ import annotations

from repro.spice.elements.base import Element, StampPlan, without_ground


class CurrentSource(Element):
    """DC (or waveform-driven) current source, flowing n_plus -> n_minus
    through the source externally (SPICE convention: current flows from
    the + terminal through the circuit to the - terminal)."""

    def __init__(self, name: str, n_plus: str, n_minus: str, waveform):
        super().__init__(name, (n_plus, n_minus))
        self.waveform = waveform

    def value(self, time: float) -> float:
        """Source current at ``time`` [A]."""
        if hasattr(self.waveform, "value"):
            return float(self.waveform.value(time))
        return float(self.waveform)

    def stamp_plan(self, rows, branch) -> StampPlan:
        """``-i`` on n_plus's row, ``+i`` on n_minus's."""
        r_plus, r_minus = rows
        return StampPlan(rhs=without_ground(((r_plus, 0), (r_minus, 1))))

    def static_values(self, time, scale):
        i = self.value(time) * scale
        return (), (-i, i)
