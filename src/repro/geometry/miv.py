"""Metal Inter-layer Via (MIV) geometry and roles.

An MIV connects the bottom tier to the top tier.  The paper distinguishes
(Figure 1):

* **internal contact** — the MIV lands on a top-tier source/drain region;
  no extra top-layer area is consumed.
* **external contact** — the MIV passes through the top tier to reach a
  gate; it consumes top-layer area including a minimum-separation keep-out.

The MIV-transistor proposal converts the external-contact overhead into a
device: the MIV itself, wrapped in a 1 nm oxide liner, gates the adjacent
silicon (a metal–insulator–semiconductor structure).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import LayoutError
from repro.geometry.primitives import Rect
from repro.geometry.process import ProcessParameters
from repro.materials import COPPER


class MivRole(enum.Enum):
    """How an MIV is used in a layout."""

    INTERNAL_CONTACT = "internal"
    EXTERNAL_CONTACT = "external"
    GATE_TRANSISTOR = "miv_transistor"


@dataclass(frozen=True)
class MivGeometry:
    """Geometry of one MIV in a given process.

    Attributes
    ----------
    process:
        The governing process parameters.
    role:
        Usage of this MIV.
    """

    process: ProcessParameters
    role: MivRole = MivRole.EXTERNAL_CONTACT

    @property
    def side(self) -> float:
        """MIV side length t_miv [m] (square cross-section, 25 nm)."""
        return self.process.t_miv

    @property
    def liner_thickness(self) -> float:
        """Oxide liner thickness isolating the MIV from silicon [m]."""
        return self.process.t_ox

    @property
    def outer_side(self) -> float:
        """MIV plus liner on both sides [m]."""
        return self.side + 2.0 * self.liner_thickness

    @property
    def keepout_margin(self) -> float:
        """Minimum separation to other top-layer features [m].

        External contacts must respect the M1 spacing; an MIV used as a
        transistor gate needs no keep-out because the surrounding silicon
        *is* the device.
        """
        if self.role is MivRole.GATE_TRANSISTOR:
            return 0.0
        return self.process.m1_spacing

    @property
    def footprint_side(self) -> float:
        """Top-layer footprint side including keep-out [m]."""
        return self.outer_side + 2.0 * self.keepout_margin

    @property
    def footprint_area(self) -> float:
        """Top-layer area consumed by this MIV [m^2]."""
        if self.role is MivRole.INTERNAL_CONTACT:
            # Lands on an S/D region that exists anyway.
            return 0.0
        return self.footprint_side ** 2

    def footprint_rect(self, cx: float, cy: float) -> Rect:
        """Footprint rectangle centred at (cx, cy)."""
        half = self.footprint_side / 2.0
        if half <= 0:
            raise LayoutError("MIV footprint is degenerate")
        return Rect(cx - half, cy - half, cx + half, cy + half,
                    label=f"miv:{self.role.value}")

    def resistance(self, span: float) -> float:
        """Vertical resistance [Ohm] of the MIV over ``span`` metres.

        The paper assumes 7 Ohm per MIV for cell simulation; this method
        exists to sanity-check that assumption from copper resistivity.
        """
        if span <= 0:
            raise LayoutError(f"MIV span must be positive, got {span}")
        area = self.side ** 2
        return COPPER.resistivity * span / area
