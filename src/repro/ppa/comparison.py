"""Percent comparisons against the 2-D baseline (the Figure 5 numbers)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.cells.variants import DeviceVariant
from repro.errors import SimulationError
from repro.ppa.runner import CellPPA

#: Metrics the comparison understands.
METRICS = ("delay", "power", "area", "pdp", "substrate")


@dataclass(frozen=True)
class PpaComparison:
    """Indexes a collection of :class:`CellPPA` and derives reductions."""

    results: Dict[str, Dict[DeviceVariant, CellPPA]]

    @classmethod
    def from_results(cls, results: Iterable[CellPPA]) -> "PpaComparison":
        """Group a flat result list by cell then variant."""
        indexed: Dict[str, Dict[DeviceVariant, CellPPA]] = {}
        for item in results:
            indexed.setdefault(item.cell_name, {})[item.variant] = item
        if not indexed:
            raise SimulationError("no PPA results to compare")
        return cls(indexed)

    @property
    def cell_names(self) -> List[str]:
        """Cells present, sorted."""
        return sorted(self.results)

    def value(self, cell: str, variant: DeviceVariant, metric: str) -> float:
        """Raw metric value."""
        if metric not in METRICS:
            raise SimulationError(f"unknown metric {metric!r}")
        try:
            return getattr(self.results[cell][variant], metric)
        except KeyError:
            raise SimulationError(
                f"missing result for {cell} / {variant.value}") from None

    def change_percent(self, cell: str, variant: DeviceVariant,
                       metric: str) -> float:
        """Percent change vs the 2-D baseline (negative = reduction)."""
        base = self.value(cell, DeviceVariant.TWO_D, metric)
        cand = self.value(cell, variant, metric)
        if base == 0:
            raise SimulationError(f"zero baseline for {cell}/{metric}")
        return 100.0 * (cand / base - 1.0)

    def average_change_percent(self, variant: DeviceVariant,
                               metric: str) -> float:
        """Library-average percent change vs 2-D."""
        changes = [self.change_percent(c, variant, metric)
                   for c in self.cell_names]
        return sum(changes) / len(changes)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def render_metric(self, metric: str, scale: float = 1.0,
                      unit: str = "") -> str:
        """Per-cell table of one metric across implementations."""
        order = (DeviceVariant.TWO_D, DeviceVariant.MIV_1CH,
                 DeviceVariant.MIV_2CH, DeviceVariant.MIV_4CH)
        lines = ["\t".join(["Cell"] + [v.value for v in order] +
                           [f"({unit})" if unit else ""])]
        for cell in self.cell_names:
            row = [cell]
            for variant in order:
                row.append(f"{self.value(cell, variant, metric) * scale:.4g}")
            lines.append("\t".join(row))
        avg = ["avg vs 2D", "-"]
        for variant in order[1:]:
            avg.append(f"{self.average_change_percent(variant, metric):+.1f}%")
        lines.append("\t".join(avg))
        return "\n".join(lines)

    def summary(self) -> Dict[str, float]:
        """The paper's headline numbers, as percent changes vs 2-D, for
        each MIV variant the comparison holds."""
        present = {v for by_variant in self.results.values()
                   for v in by_variant}
        out: Dict[str, float] = {}
        for variant in (DeviceVariant.MIV_1CH, DeviceVariant.MIV_2CH,
                        DeviceVariant.MIV_4CH):
            if variant not in present:
                continue
            for metric in ("delay", "power", "area", "pdp"):
                key = f"{variant.value}:{metric}"
                out[key] = self.average_change_percent(variant, metric)
        return out
