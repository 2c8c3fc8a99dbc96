"""TCAD-lite: a numerical FDSOI device simulator.

This package replaces the paper's Sentaurus TCAD flow.  It solves the
nonlinear 1-D Poisson equation vertically through the gate / oxide / film /
BOX stack (Newton iteration, Boltzmann carriers), integrates drain current
with the Pao-Sah / charge-sheet formulation (with velocity saturation and
characteristic-length short-channel corrections), models SRH leakage and
produces the Id-Vg / Id-Vd / C-V characteristics the extraction flow needs.
"""

from repro.tcad.mesh import Mesh1D, Region
from repro.tcad.statistics import boltzmann_n, boltzmann_p
from repro.tcad.poisson1d import Poisson1D, PoissonSolution, StackSpec
from repro.tcad.charge_sheet import ChargeSheetModel
from repro.tcad.device import DeviceDesign, Polarity, design_for_variant
from repro.tcad.simulator import TcadSimulator, SweepSpec
from repro.tcad.characteristics import CVCurve, IVCurve, IdVdFamily

__all__ = [
    "Mesh1D",
    "Region",
    "boltzmann_n",
    "boltzmann_p",
    "Poisson1D",
    "PoissonSolution",
    "StackSpec",
    "ChargeSheetModel",
    "DeviceDesign",
    "Polarity",
    "design_for_variant",
    "TcadSimulator",
    "SweepSpec",
    "IVCurve",
    "IdVdFamily",
    "CVCurve",
]
