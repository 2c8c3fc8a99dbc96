"""Sweep drivers producing the characteristics the extraction flow needs.

Reproduces the paper's TCAD measurement plan (Section III-B):

* Low-drain Id-Vg at V_DS = 0.05 V,
* High-drain Id-Vg at V_DS = 1.0 V,
* Id-Vd families for V_GS = 0.4 .. 1.0 V,
* C-V (gate capacitance vs gate voltage).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.tcad.characteristics import CVCurve, IdVdFamily, IVCurve
from repro.tcad.device import DeviceDesign


@dataclass(frozen=True)
class SweepSpec:
    """Bias plan for characterising one device.

    Defaults mirror the paper: V_DS,lin = 0.05 V, V_DS,sat = 1.0 V,
    gate biases 0.4-1.0 V for the output family, 1 V supply.
    """

    vg_start: float = 0.0
    vg_stop: float = 1.0
    vg_points: int = 21
    vds_lin: float = 0.05
    vds_sat: float = 1.0
    vd_points: int = 17
    idvd_gate_biases: tuple = (0.4, 0.6, 0.8, 1.0)
    cv_points: int = 21

    def __post_init__(self) -> None:
        if self.vg_stop <= self.vg_start:
            raise SimulationError("vg_stop must exceed vg_start")
        if min(self.vg_points, self.vd_points, self.cv_points) < 3:
            raise SimulationError("sweeps need at least 3 points")
        if self.vds_lin <= 0 or self.vds_sat <= 0:
            raise SimulationError("drain biases must be positive")

    @property
    def vg_axis(self) -> np.ndarray:
        """Gate-voltage axis [V]."""
        return np.linspace(self.vg_start, self.vg_stop, self.vg_points)

    @property
    def vd_axis(self) -> np.ndarray:
        """Drain-voltage axis [V].

        Starts at the linear-region bias (0.05 V, the paper's V_DS,lin)
        rather than 0: below that the currents are noise-level in a real
        extraction and would dominate a relative-error metric.
        """
        return np.linspace(self.vds_lin, self.vds_sat, self.vd_points)


class TcadSimulator:
    """Runs the standard sweep plan on a :class:`DeviceDesign`.

    All outputs are magnitude-space (|I| vs |V|); the device handles
    polarity internally.  Each sweep is one stacked charge-sheet call
    (:meth:`ChargeSheetModel.drain_currents` for I-V, one stacked
    Poisson solve for C-V), so a device's whole plan costs 14 Newton
    solves of up to 110 rows each instead of ~1,500 scalar ones.
    """

    def __init__(self, device: DeviceDesign, spec: Optional[SweepSpec] = None):
        self.device = device
        self.spec = spec or SweepSpec()

    def iv_sweeps(self) -> Tuple[IVCurve, IVCurve, IdVdFamily]:
        """The I-V plan in one stacked call: the low- and high-drain
        transfer curves, then the output family (in the paper V_DS =
        0.05 V and 1.0 V, and V_GS = 0.4-1.0 V)."""
        spec = self.spec
        vg, vd = spec.vg_axis, spec.vd_axis
        biases = spec.idvd_gate_biases
        vgs = np.concatenate([vg, vg, np.repeat(biases, vd.size)])
        vds = np.concatenate([np.full(vg.size, spec.vds_lin),
                              np.full(vg.size, spec.vds_sat),
                              np.tile(vd, len(biases))])
        currents = self.device.engine.drain_currents(vgs, vds)
        lin, sat, family = np.split(currents, [vg.size, 2 * vg.size])
        curves = [IVCurve(vd, row, float(bias), "idvd",
                          f"{self.device.label}:idvd@vg={bias:g}V")
                  for bias, row in zip(biases,
                                       family.reshape(len(biases), vd.size))]
        return (self._idvg_curve(spec.vds_lin, lin),
                self._idvg_curve(spec.vds_sat, sat),
                IdVdFamily(curves, f"{self.device.label}:idvd"))

    def cv(self) -> CVCurve:
        """Gate C-V at V_DS = 0 over the gate axis."""
        vg = np.linspace(self.spec.vg_start, self.spec.vg_stop,
                         self.spec.cv_points)
        return CVCurve(vg, self.device.gate_capacitance(vg),
                       f"{self.device.label}:cv")

    def _idvg_curve(self, vds: float, currents: np.ndarray) -> IVCurve:
        return IVCurve(self.spec.vg_axis, currents, vds, "idvg",
                       f"{self.device.label}:idvg@{vds:g}V")
