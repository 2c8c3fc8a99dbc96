"""Cell-level area computation across implementations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.cells.spec import CellSpec
from repro.cells.variants import DeviceVariant
from repro.errors import LayoutError
from repro.layout.device_footprint import RowGeometry, row_geometry
from repro.layout.rules import DesignRules


@dataclass(frozen=True)
class CellLayoutResult:
    """Areas of one (cell, variant) pair — all lengths in metres.

    Attributes
    ----------
    cell_area:
        The Figure 5(c) metric: max-width x max-height over both layers
        (placement treats the layers together).
    top_area / bottom_area:
        Per-layer bounding areas (width x that layer's height).
    substrate_area:
        Sum of the per-layer areas — the "total substrate area" of the
        paper's Section IV-3 discussion, which independent per-layer
        placement could realise.
    """

    cell_name: str
    variant: DeviceVariant
    width: float
    height: float
    top_width: float
    top_height: float
    bottom_width: float
    bottom_height: float

    @property
    def cell_area(self) -> float:
        """Joint-placement cell area [m^2] (Figure 5(c))."""
        return self.width * self.height

    @property
    def top_area(self) -> float:
        """Top (n-type) layer bounding area [m^2]."""
        return self.top_width * self.top_height

    @property
    def bottom_area(self) -> float:
        """Bottom (p-type) layer bounding area [m^2]."""
        return self.bottom_width * self.bottom_height

    @property
    def substrate_area(self) -> float:
        """Sum of per-layer areas [m^2] (independent placement bound)."""
        return self.top_area + self.bottom_area


class CellAreaModel:
    """Computes layout areas for cells across implementations."""

    def __init__(self, rules: DesignRules = DesignRules()):
        self.rules = rules
        self._geometry: Dict[DeviceVariant, RowGeometry] = {
            variant: row_geometry(variant, rules)
            for variant in DeviceVariant
        }

    def layout(self, spec: CellSpec,
               variant: DeviceVariant) -> CellLayoutResult:
        """Areas of one cell in one implementation."""
        n_per_layer = spec.nmos_count
        if n_per_layer < 1:
            raise LayoutError(f"{spec.name}: no transistors")
        geo = self._geometry[variant]
        # Multi-stage cells break diffusion sharing between stages: one
        # routing track per stage boundary on both layers.
        stage_gap = (len(spec.stages) - 1) * self.rules.m1_track
        top_w = geo.top_width(n_per_layer) + stage_gap
        bot_w = geo.bottom_width(n_per_layer) + stage_gap
        return CellLayoutResult(
            cell_name=spec.name,
            variant=variant,
            width=max(top_w, bot_w),
            height=max(geo.top_height, geo.bottom_height),
            top_width=top_w,
            top_height=geo.top_height,
            bottom_width=bot_w,
            bottom_height=geo.bottom_height,
        )
