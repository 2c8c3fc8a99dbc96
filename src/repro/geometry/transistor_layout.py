"""Top-view device layouts of Figure 2.

Encodes the four device implementations the paper compares:

* **traditional** 2-D FDSOI transistor whose gate is reached through an
  external-contact MIV with the full M1-spacing keep-out zone;
* **1-channel MIV-transistor** — MIV merged with the gate at the end of a
  single 192 nm channel (S/D contacts still need M1 spacing to the MIV);
* **2-channel MIV-transistor** — two 96 nm fingers sharing a gate column,
  the MIV nested between the fingers (no extra spacing);
* **4-channel MIV-transistor** — four 48 nm channels on all sides of the
  MIV; S/D regions sit on either side so an extra routing track is needed
  to tie the sources and the drains together.

The paper scales the per-channel width 2x at each step so the equivalent
width stays 192 nm: 1 x 192 = 2 x 96 = 4 x 48.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

from repro.errors import LayoutError
from repro.geometry.miv import MivGeometry, MivRole
from repro.geometry.primitives import Rect, bounding_rect
from repro.geometry.process import ProcessParameters


class ChannelCount(enum.Enum):
    """Number of channels of a device implementation."""

    TRADITIONAL = 0  # single channel, external-contact MIV for the gate
    ONE = 1
    TWO = 2
    FOUR = 4

    @property
    def uses_miv_gate(self) -> bool:
        """True when the MIV itself is (part of) the gate."""
        return self is not ChannelCount.TRADITIONAL


@dataclass(frozen=True)
class DeviceLayout:
    """Geometric summary of one device implementation (Figure 2).

    All dimensions in metres.  ``footprint`` is the top-layer bounding box
    including the MIV and any mandatory spacing; ``extra_routing_tracks``
    counts additional M1 tracks the cell router must reserve.
    """

    variant: ChannelCount
    process: ProcessParameters
    n_channels: int
    channel_width: float
    footprint: Rect
    sd_regions: List[Rect]
    gate_region: Rect
    miv_rect: Rect
    extra_routing_tracks: int
    #: Number of channel edges adjacent to the MIV liner (side-gate action).
    miv_coupled_edges: int
    #: Number of etched channel sidewall edges (narrow-width scattering).
    sidewall_edges: int

    def __post_init__(self) -> None:
        if self.n_channels < 1:
            raise LayoutError("device must have at least one channel")
        total = self.n_channels * self.channel_width
        expected = self.process.w_src
        if abs(total - expected) > 0.05 * expected:
            raise LayoutError(
                f"equivalent width mismatch: {self.n_channels} x "
                f"{self.channel_width} != {expected}")

    @property
    def total_width(self) -> float:
        """Equivalent electrical width [m] (paper: 192 nm for all)."""
        return self.n_channels * self.channel_width

    @property
    def area(self) -> float:
        """Top-layer footprint area [m^2]."""
        return self.footprint.area

    @property
    def height(self) -> float:
        """Footprint extent along the width (y) direction [m]."""
        return self.footprint.height

    @property
    def body_width(self) -> float:
        """Footprint extent along the channel (x) direction [m]."""
        return self.footprint.width


def _gate_column(process: ProcessParameters) -> float:
    """Width of one gate column: gate length plus both spacers [m]."""
    return process.l_gate + 2.0 * process.t_spacer


def _traditional_layout(process: ProcessParameters) -> DeviceLayout:
    """Single 192 nm channel; gate contacted by an external MIV with
    keep-out (Figure 1 'external contact')."""
    gate_col = _gate_column(process)
    w = process.w_src
    miv = MivGeometry(process, MivRole.EXTERNAL_CONTACT)
    x_body = 2.0 * process.l_src + gate_col

    source = Rect(0.0, 0.0, process.l_src, w, "S")
    gate = Rect(process.l_src, 0.0, process.l_src + gate_col, w, "G")
    drain = Rect(process.l_src + gate_col, 0.0, x_body, w, "D")
    # The gate-contact MIV (with keep-out) sits past the channel along y.
    miv_cx = process.l_src + gate_col / 2.0
    miv_cy = w + miv.footprint_side / 2.0
    miv_rect = miv.footprint_rect(miv_cx, miv_cy)
    footprint = bounding_rect([source, gate, drain, miv_rect], "traditional")
    return DeviceLayout(
        variant=ChannelCount.TRADITIONAL,
        process=process,
        n_channels=1,
        channel_width=w,
        footprint=footprint,
        sd_regions=[source, drain],
        gate_region=gate,
        miv_rect=miv_rect,
        extra_routing_tracks=0,
        miv_coupled_edges=0,
        sidewall_edges=2,
    )


def _one_channel_layout(process: ProcessParameters) -> DeviceLayout:
    """MIV merged with the gate at the end of one 192 nm channel.

    No spacing between MIV and gate, but the S/D metal contacts must keep
    the minimum M1 spacing (24 nm) from the MIV landing pad.
    """
    gate_col = _gate_column(process)
    w = process.w_src
    miv = MivGeometry(process, MivRole.GATE_TRANSISTOR)
    x_body = 2.0 * process.l_src + gate_col

    source = Rect(0.0, 0.0, process.l_src, w, "S")
    gate = Rect(process.l_src, 0.0, process.l_src + gate_col, w, "G")
    drain = Rect(process.l_src + gate_col, 0.0, x_body, w, "D")
    miv_cx = process.l_src + gate_col / 2.0
    miv_cy = w + miv.outer_side / 2.0
    miv_rect = miv.footprint_rect(miv_cx, miv_cy)
    # S/D contact-to-MIV spacing consumes one M1 space along y.
    spacing_strip = Rect(0.0, w + miv.outer_side,
                         x_body, w + miv.outer_side + process.m1_spacing,
                         "sd-miv-space")
    footprint = bounding_rect([source, gate, drain, miv_rect, spacing_strip],
                              "miv-1ch")
    return DeviceLayout(
        variant=ChannelCount.ONE,
        process=process,
        n_channels=1,
        channel_width=w,
        footprint=footprint,
        sd_regions=[source, drain],
        gate_region=gate,
        miv_rect=miv_rect,
        extra_routing_tracks=0,
        miv_coupled_edges=1,
        sidewall_edges=2,
    )


def _two_channel_layout(process: ProcessParameters) -> DeviceLayout:
    """Two 96 nm fingers sharing the gate column, MIV nested between them."""
    gate_col = _gate_column(process)
    w_finger = process.w_src / 2.0
    miv = MivGeometry(process, MivRole.GATE_TRANSISTOR)
    x_body = 2.0 * process.l_src + gate_col

    lower_y0 = 0.0
    lower_y1 = w_finger
    upper_y0 = w_finger + miv.outer_side
    upper_y1 = upper_y0 + w_finger

    regions = []
    for (y0, y1), suffix in (((lower_y0, lower_y1), "a"),
                             ((upper_y0, upper_y1), "b")):
        regions.append(Rect(0.0, y0, process.l_src, y1, f"S{suffix}"))
        regions.append(Rect(process.l_src + gate_col, y0, x_body, y1,
                            f"D{suffix}"))
    gate = Rect(process.l_src, lower_y0, process.l_src + gate_col, upper_y1,
                "G")
    miv_cx = process.l_src + gate_col / 2.0
    miv_cy = w_finger + miv.outer_side / 2.0
    miv_rect = miv.footprint_rect(miv_cx, miv_cy)
    footprint = bounding_rect(regions + [gate, miv_rect], "miv-2ch")
    return DeviceLayout(
        variant=ChannelCount.TWO,
        process=process,
        n_channels=2,
        channel_width=w_finger,
        footprint=footprint,
        sd_regions=regions,
        gate_region=gate,
        miv_rect=miv_rect,
        extra_routing_tracks=0,
        miv_coupled_edges=2,
        sidewall_edges=4,
    )


def _four_channel_layout(process: ProcessParameters) -> DeviceLayout:
    """Four 48 nm channels on all sides of the MIV; S/D on either side.

    The minimum active dimension is 48 nm (smallest via plus separations,
    Section III).  Because sources and drains end up on opposite sides, one
    extra M1 routing track is reserved to connect them.
    """
    gate_col = _gate_column(process)
    w_ch = process.w_src / 4.0
    if w_ch < process.l_src - 1e-15:
        raise LayoutError(
            f"4-channel active width {w_ch} below the 48 nm minimum")
    miv = MivGeometry(process, MivRole.GATE_TRANSISTOR)

    # Cross-shaped core: gate ring (one gate column wide) around the MIV,
    # S/D arms of length l_src on the west/east, channel pairs north/south.
    core = miv.outer_side + 2.0 * process.l_gate
    x_body = 2.0 * process.l_src + core + 2.0 * process.t_spacer
    y_body = 2.0 * w_ch + core

    west_src = Rect(0.0, core / 2.0 - w_ch, process.l_src,
                    core / 2.0 + w_ch, "Sw")
    east_drn = Rect(x_body - process.l_src, core / 2.0 - w_ch,
                    x_body, core / 2.0 + w_ch, "De")
    north = Rect(process.l_src, y_body - w_ch,
                 x_body - process.l_src, y_body, "Dn")
    south = Rect(process.l_src, 0.0, x_body - process.l_src, w_ch, "Ss")
    gate = Rect(process.l_src, w_ch, x_body - process.l_src,
                y_body - w_ch, "G")
    miv_rect = miv.footprint_rect(x_body / 2.0, y_body / 2.0)
    # Extra M1 track to join the split sources/drains.
    track = process.m1_width + process.m1_spacing
    routing = Rect(0.0, y_body, x_body, y_body + track, "route")
    footprint = bounding_rect(
        [west_src, east_drn, north, south, gate, miv_rect, routing],
        "miv-4ch")
    return DeviceLayout(
        variant=ChannelCount.FOUR,
        process=process,
        n_channels=4,
        channel_width=w_ch,
        footprint=footprint,
        sd_regions=[west_src, east_drn, north, south],
        gate_region=gate,
        miv_rect=miv_rect,
        extra_routing_tracks=1,
        miv_coupled_edges=4,
        sidewall_edges=8,
    )


_BUILDERS = {
    ChannelCount.TRADITIONAL: _traditional_layout,
    ChannelCount.ONE: _one_channel_layout,
    ChannelCount.TWO: _two_channel_layout,
    ChannelCount.FOUR: _four_channel_layout,
}


def layout_for_variant(variant: ChannelCount,
                       process: ProcessParameters) -> DeviceLayout:
    """Build the Figure-2 layout for one device implementation."""
    try:
        builder = _BUILDERS[variant]
    except KeyError:  # pragma: no cover - enum exhausts the dict
        raise LayoutError(f"unknown variant {variant!r}") from None
    return builder(process)
