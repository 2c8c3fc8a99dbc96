"""Device designs: traditional FDSOI and the 1/2/4-channel MIV-transistors.

This module is where the *physical* differences between the paper's device
variants enter the simulation — everything downstream (extraction, cell
simulation, PPA) just consumes the resulting characteristics:

* **MIV side-gate coupling** — the liner-isolated MIV gates the channel
  edges it touches, improving electrostatic control of the channel body.
  The coupled area fraction per edge is ``t_si / W_total``; acting on the
  body like a tied back-gate, it lowers the threshold voltage (saturating
  at ``MIV_VTH_MAX``) — a forward shift, not a C_ox increase, because the
  MIV couples through the channel *sidewall*, so the drive improves
  without a proportional gate-charge increase.
* **Narrow-width mobility degradation** — etched sidewall scattering,
  quadratic in the edge fraction (see :func:`repro.tcad.velocity.
  narrow_width_factor`), penalising the 48 nm fingers of the 4-channel
  device the most.
* **Ring-gate length stretch** — in the 4-channel cross layout, carriers
  in the corner channels travel around the MIV, lengthening the effective
  channel.
* **Parasitic capacitances** — gate/SD overlap through the spacers plus
  MIV-liner fringing onto adjacent S/D regions (largest for 4-channel).
* **S/D series resistance** — silicided sheet resistance over half the
  S/D length.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

from numpy.typing import ArrayLike

from repro.geometry.process import DEFAULT_PROCESS, ProcessParameters
from repro.geometry.miv import MivGeometry, MivRole
from repro.geometry.transistor_layout import (
    ChannelCount,
    DeviceLayout,
    layout_for_variant,
)
from repro.materials import COPPER, SILICON, SILICON_DIOXIDE
from repro.tcad.charge_sheet import ChargeSheetModel
from repro.tcad.poisson1d import Poisson1D, StackSpec
from repro.tcad.short_channel import ShortChannelModel
from repro.tcad.velocity import (
    ELECTRON_MOBILITY,
    HOLE_MOBILITY,
    MobilityModel,
    narrow_width_factor,
)

#: Saturation magnitude of the MIV side-gate threshold reduction [V].
MIV_VTH_MAX = 0.040

#: Coupled-width fraction at which the threshold shift saturates.
MIV_VTH_FRACTION_SCALE = 0.035

#: Fraction of the MIV perimeter that stretches the 4-channel ring gate.
RING_CORNER_FRACTION = 0.5

#: Effective (silicided) S/D sheet resistance [Ohm/sq].
SD_SHEET_RESISTANCE = 500.0

#: Gate-to-S/D overlap/fringe capacitance per metre of width [F/m],
#: from spacer fringing (2 eps_ox / pi * ln(1 + t_gate/t_ox) ~ 66 pF/m).
OVERLAP_CAP_PER_WIDTH = 6.6e-11


class Polarity(enum.Enum):
    """Transistor polarity."""

    NMOS = "n"
    PMOS = "p"

    @property
    def sign(self) -> int:
        """+1 for NMOS, -1 for PMOS (terminal voltage/current convention)."""
        return 1 if self is Polarity.NMOS else -1


@dataclass
class DeviceDesign:
    """A fully specified device ready for simulation.

    Construct through :func:`design_for_variant`.  The drain-current and
    capacitance methods are polarity-aware: PMOS takes negative ``vgs`` /
    ``vds`` and returns negative drain current, as in SPICE conventions.
    """

    variant: ChannelCount
    polarity: Polarity
    process: ProcessParameters
    layout: DeviceLayout
    engine: ChargeSheetModel
    sd_resistance: float
    overlap_cap_source: float
    overlap_cap_drain: float
    miv_fringe_cap: float
    label: str = ""

    @property
    def width(self) -> float:
        """Total electrical width [m]."""
        return self.engine.width

    @property
    def l_gate(self) -> float:
        """Drawn gate length [m]."""
        return self.engine.l_gate

    def ids(self, vgs: float, vds: float) -> float:
        """Drain current [A], SPICE sign convention.

        For PMOS, ``vgs``/``vds`` are expected negative in normal operation
        and the returned current is negative (flows out of the drain).
        """
        sign = self.polarity.sign
        return sign * self.engine.drain_current(sign * vgs, sign * vds)

    def ids_magnitude(self, vgs_mag: float, vds_mag: float) -> float:
        """|I_D| [A] for magnitude-space sweeps (extraction targets)."""
        return self.engine.drain_current(vgs_mag, vds_mag)

    def gate_capacitance(self, vgs_mag: ArrayLike) -> ArrayLike:
        """Total gate capacitance [F] at V_DS = 0 for a magnitude-space
        gate bias (or an array of them): intrinsic C_GG plus overlaps and
        MIV fringing."""
        per_area = self.engine.gate_capacitance_per_area(vgs_mag)
        intrinsic = per_area * self.width * self.l_gate
        return (intrinsic + self.overlap_cap_source + self.overlap_cap_drain +
                self.miv_fringe_cap)


def _coupling_vth_shift(layout: DeviceLayout,
                        process: ProcessParameters) -> float:
    """Threshold reduction [V] from MIV side-gating (>= 0).

    Saturating in the coupled fraction: once the side-gate controls the
    channel body, additional coupled edges add little (the body is
    already pinned), which is why the 2-channel device barely improves
    on the 1-channel one despite twice the coupled edges.
    """
    if layout.miv_coupled_edges == 0:
        return 0.0
    fraction = layout.miv_coupled_edges * process.t_si / process.w_src
    return MIV_VTH_MAX * (1.0 - math.exp(-fraction / MIV_VTH_FRACTION_SCALE))


def _length_factor(layout: DeviceLayout, process: ProcessParameters) -> float:
    """Effective-length multiplier (ring-gate stretch, 4-channel only)."""
    if layout.variant is not ChannelCount.FOUR:
        return 1.0
    miv = MivGeometry(process, MivRole.GATE_TRANSISTOR)
    stretch = RING_CORNER_FRACTION * (miv.outer_side / 2.0) / process.l_gate
    return 1.0 + stretch


def _flatband(polarity: Polarity) -> float:
    """Front-gate flat-band voltage [V] for the Cu metal gate over the
    undoped film: WF_metal - (affinity + Eg/2), mirrored for PMOS."""
    phi_semi = SILICON.affinity + SILICON.bandgap / 2.0
    phi_ms = COPPER.workfunction - phi_semi
    return phi_ms if polarity is Polarity.NMOS else -phi_ms


def _sd_resistance(layout: DeviceLayout, process: ProcessParameters) -> float:
    """One-side S/D series resistance [Ohm] (current crosses half l_src)."""
    squares = (process.l_src / 2.0) / process.w_src
    resistance = SD_SHEET_RESISTANCE * squares
    # The 4-channel device feeds split S/D arms through an extra M1 track.
    if layout.extra_routing_tracks:
        track_length = layout.footprint.width
        resistance += COPPER.wire_resistance(
            track_length, process.m1_width, process.m1_thickness)
    return resistance


def _miv_fringe_cap(layout: DeviceLayout, process: ProcessParameters) -> float:
    """MIV fringing capacitance onto nearby S/D regions [F].

    The MIV faces that gate channels are part of the intrinsic device;
    the remaining faces see the S/D regions through at least a spacer
    thickness of dielectric, so the parasitic is
    ``eps_ox * face_area / t_spacer`` per face — sub-attofarad, but kept
    for completeness (the 4-channel cross exposes the most faces).
    """
    if not layout.variant.uses_miv_gate:
        return 0.0
    miv = MivGeometry(process, MivRole.GATE_TRANSISTOR)
    facing_faces = {
        ChannelCount.ONE: 1.0,
        ChannelCount.TWO: 2.0,
        ChannelCount.FOUR: 4.0,
    }[layout.variant]
    face_area = miv.side * process.t_si
    spacer_cap = (SILICON_DIOXIDE.permittivity * face_area /
                  process.t_spacer)
    return facing_faces * spacer_cap


def design_for_variant(
    variant: ChannelCount,
    polarity: Polarity,
    process: Optional[ProcessParameters] = None,
    mesh_cells_film: int = 28,
) -> DeviceDesign:
    """Build the simulated device for one (variant, polarity) pair."""
    process = process or DEFAULT_PROCESS
    layout = layout_for_variant(variant, process)

    vth_shift = _coupling_vth_shift(layout, process)
    stack = StackSpec(
        t_ox=process.t_ox,
        t_si=process.t_si,
        t_box=process.t_box,
        flatband=abs(_flatband(polarity)) - vth_shift,
        net_doping=0.0,
        temperature=process.temperature,
        n_cells_si=mesh_cells_film,
    )
    poisson = Poisson1D(stack)

    base_mobility = (ELECTRON_MOBILITY if polarity is Polarity.NMOS
                     else HOLE_MOBILITY)
    nw = narrow_width_factor(layout.channel_width)
    mobility = MobilityModel(
        mu_low=base_mobility.mu_low * nw,
        e_crit=base_mobility.e_crit,
        exponent=base_mobility.exponent,
        v_sat=base_mobility.v_sat,
    )
    short_channel = ShortChannelModel(t_si=process.t_si, t_ox=process.t_ox)
    engine = ChargeSheetModel(
        poisson=poisson,
        mobility=mobility,
        short_channel=short_channel,
        width=process.w_src,
        l_gate=process.l_gate,
        l_eff_factor=_length_factor(layout, process),
    )

    overlap = OVERLAP_CAP_PER_WIDTH * process.w_src
    design = DeviceDesign(
        variant=variant,
        polarity=polarity,
        process=process,
        layout=layout,
        engine=engine,
        sd_resistance=_sd_resistance(layout, process),
        overlap_cap_source=overlap,
        overlap_cap_drain=overlap,
        miv_fringe_cap=_miv_fringe_cap(layout, process),
        label=f"{variant.name.lower()}-{polarity.value}",
    )
    return design
