"""Vertical layer stack of the 2-layer M3D process (Figure 1).

The stack, from bottom to top: carrier substrate, bottom BOX, bottom
silicon film (p-type devices), bottom gate stack, ILD, top BOX-equivalent,
top silicon film (n-type devices), top gate stack and two interconnect
metals (M1, M2) in interconnect dielectric.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ReproError
from repro.geometry.process import ProcessParameters
from repro.materials import Material, SILICON, SILICON_DIOXIDE, COPPER
from repro.units import nm


class LayerRole(enum.Enum):
    """Functional role of a layer in the M3D stack."""

    SUBSTRATE = "substrate"
    BOX = "box"
    ACTIVE = "active"
    GATE_STACK = "gate_stack"
    ILD = "ild"
    METAL = "metal"
    DIELECTRIC = "dielectric"


@dataclass(frozen=True)
class Layer:
    """One layer of the vertical stack.

    Attributes
    ----------
    name:
        Unique layer name (e.g. ``"top_active"``).
    role:
        Functional role.
    material:
        Dominant material of the layer.
    thickness:
        Layer thickness [m].
    tier:
        0 for the bottom (p-type) tier, 1 for the top (n-type) tier.
    """

    name: str
    role: LayerRole
    material: Material
    thickness: float
    tier: int

    def __post_init__(self) -> None:
        if self.thickness <= 0:
            raise ReproError(
                f"layer {self.name!r} thickness must be positive, "
                f"got {self.thickness}")
        if self.tier not in (0, 1):
            raise ReproError(f"layer {self.name!r} tier must be 0 or 1")


@dataclass(frozen=True)
class LayerStack:
    """An ordered (bottom-to-top) sequence of layers."""

    layers: Sequence[Layer]

    def __post_init__(self) -> None:
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            raise ReproError("layer names must be unique")

    @property
    def total_thickness(self) -> float:
        """Total stack thickness [m]."""
        return sum(layer.thickness for layer in self.layers)

    def find(self, name: str) -> Layer:
        """Return the layer with the given name."""
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise ReproError(f"no layer named {name!r}")

    def z_of(self, name: str) -> float:
        """Height of the bottom face of layer ``name`` above the stack base."""
        z = 0.0
        for layer in self.layers:
            if layer.name == name:
                return z
            z += layer.thickness
        raise ReproError(f"no layer named {name!r}")

    def miv_span(self) -> float:
        """Vertical distance an MIV must cross: from the bottom tier's metal
        landing to the top tier's active layer."""
        return self.z_of("top_active") - self.z_of("bottom_gate")


def build_m3d_stack(process: ProcessParameters) -> LayerStack:
    """Construct the Figure-1 stack from Table-I thicknesses.

    The gate stack thickness is the oxide liner plus an assumed 20 nm metal
    gate; the ILD separating the tiers is assumed 50 nm which is consistent
    with the < 0.1 um inter-tier distance the paper quotes for M3D.
    """
    gate_metal = nm(20)
    ild = nm(50)
    layers = (
        Layer("carrier", LayerRole.SUBSTRATE, SILICON, nm(500), 0),
        Layer("bottom_box", LayerRole.BOX, SILICON_DIOXIDE, process.t_box, 0),
        Layer("bottom_active", LayerRole.ACTIVE, SILICON, process.t_si, 0),
        Layer("bottom_gate_oxide", LayerRole.GATE_STACK, SILICON_DIOXIDE,
              process.t_ox, 0),
        Layer("bottom_gate", LayerRole.GATE_STACK, COPPER, gate_metal, 0),
        Layer("ild", LayerRole.ILD, SILICON_DIOXIDE, ild, 0),
        Layer("top_box", LayerRole.BOX, SILICON_DIOXIDE, process.t_box, 1),
        Layer("top_active", LayerRole.ACTIVE, SILICON, process.t_si, 1),
        Layer("top_gate_oxide", LayerRole.GATE_STACK, SILICON_DIOXIDE,
              process.t_ox, 1),
        Layer("top_gate", LayerRole.GATE_STACK, COPPER, gate_metal, 1),
        Layer("m1", LayerRole.METAL, COPPER, process.m1_thickness, 1),
        Layer("id1", LayerRole.DIELECTRIC, SILICON_DIOXIDE, nm(24), 1),
        Layer("m2", LayerRole.METAL, COPPER, process.m1_thickness, 1),
    )
    return LayerStack(layers)
