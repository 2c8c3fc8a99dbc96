"""Threshold voltage with short-channel corrections (VTH0/DVT0/DVT1/ETAB).

Follows the BSIM characteristic-length formulation:

    dVth_SCE = 0.5 * DVT0 / (cosh(DVT1 * L / lt) - 1) * Vbi_eff
    Vth      = VTH0 - dVth_SCE - ETAB * Vds

with ``lt = sqrt(eps_si/eps_ox * TSI * TOX)`` the SOI natural length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import cosh, sqrt

import numpy as np

from repro.materials import SILICON, SILICON_DIOXIDE

#: Effective junction built-in potential entering the roll-off term [V].
BUILT_IN_EFFECTIVE = 0.55


@dataclass(frozen=True)
class ThresholdModel:
    """Threshold evaluator bound to a geometry (L, TSI, TOX)."""

    l_gate: float
    t_si: float
    t_ox: float

    def __post_init__(self) -> None:
        if min(self.l_gate, self.t_si, self.t_ox) <= 0:
            raise ValueError("geometry must be positive")

    @cached_property
    def natural_length(self) -> float:
        """SOI characteristic length lt [m]."""
        ratio = SILICON.permittivity / SILICON_DIOXIDE.permittivity
        return sqrt(ratio * self.t_si * self.t_ox)

    def sce_shift(self, dvt0: float, dvt1: float) -> float:
        """Short-channel V_th reduction [V] (bias independent part)."""
        arg = dvt1 * self.l_gate / self.natural_length
        denom = cosh(min(arg, 300.0)) - 1.0
        if denom < 1e-12:
            denom = 1e-12
        return 0.5 * dvt0 / denom * BUILT_IN_EFFECTIVE

    def vth(self, vth0: float, dvt0: float, dvt1: float, etab: float,
            vds) -> np.ndarray:
        """Threshold voltage [V] versus drain bias (vectorised in vds)."""
        return threshold_voltage(vth0, self.sce_shift(dvt0, dvt1), etab, vds)


def threshold_voltage(vth0, sce, etab, vds) -> np.ndarray:
    """``VTH0 - dVth_SCE - ETAB * Vds`` [V] from the short-channel shift
    ``sce`` (:meth:`ThresholdModel.sce_shift`).

    The parameters are Python floats or device columns
    (:class:`~repro.compact.columns.DeviceColumns`).
    """
    return vth0 - sce - etab * np.asarray(vds, dtype=float)
