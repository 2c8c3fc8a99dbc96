"""Process and design parameters — Table I of the paper.

:class:`ProcessParameters` is the single source of truth consumed by the
TCAD device builder, the compact-model defaults (Table II shares TSI / TOX /
TBOX / L / W with Table I) and the layout rules.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict

from repro.errors import ReproError
from repro.units import nm, per_cm3


@dataclass(frozen=True)
class ProcessParameters:
    """FDSOI M3D process assumptions (all lengths in metres).

    Defaults reproduce Table I exactly.
    """

    #: Silicon film thickness t_Si (7 nm).
    t_si: float = nm(7)
    #: Height of source/drain region h_src (7 nm).
    h_src: float = nm(7)
    #: Gate-oxide / MIV liner thickness t_ox (1 nm).
    t_ox: float = nm(1)
    #: Source/drain doping n_src (1e19 cm^-3), stored in m^-3.
    n_src: float = per_cm3(1e19)
    #: Spacer thickness t_spacer (10 nm).
    t_spacer: float = nm(10)
    #: Buried oxide thickness t_BOX (100 nm).
    t_box: float = nm(100)
    #: MIV thickness (side) t_miv (25 nm).
    t_miv: float = nm(25)
    #: Length of source/drain region l_src (48 nm).
    l_src: float = nm(48)
    #: Equivalent transistor width w_src (192 nm).
    w_src: float = nm(192)
    #: Gate length L_G (24 nm).
    l_gate: float = nm(24)
    #: M1/M2 wire width (24 nm) per the 7 nm-PDK assumptions of [16].
    m1_width: float = nm(24)
    #: M1/M2 wire thickness (48 nm).
    m1_thickness: float = nm(48)
    #: Via contact size (24 nm).
    via_size: float = nm(24)
    #: Minimum M1 spacing, also the MIV keep-out margin (24 nm).
    m1_spacing: float = nm(24)
    #: Supply voltage used in all cell simulations [V].
    vdd: float = 1.0
    #: Nominal temperature [K] (TNOM = 25 C).
    temperature: float = 298.15

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value <= 0:
                raise ReproError(
                    f"process parameter {f.name} must be positive, got {value}")

    def with_updates(self, **updates: float) -> "ProcessParameters":
        """Return a copy with selected parameters replaced."""
        return replace(self, **updates)

    def as_table1(self) -> Dict[str, float]:
        """Return the Table I rows in the paper's units (nm / cm^-3)."""
        return {
            "t_Si [nm]": self.t_si / nm(1),
            "h_src [nm]": self.h_src / nm(1),
            "t_ox [nm]": self.t_ox / nm(1),
            "n_src [cm^-3]": self.n_src / 1e6,
            "t_spacer [nm]": self.t_spacer / nm(1),
            "t_BOX [nm]": self.t_box / nm(1),
            "t_miv [nm]": self.t_miv / nm(1),
            "l_src [nm]": self.l_src / nm(1),
            "w_src [nm]": self.w_src / nm(1),
            "L_G [nm]": self.l_gate / nm(1),
        }

#: The paper's nominal process (Table I).
DEFAULT_PROCESS = ProcessParameters()
