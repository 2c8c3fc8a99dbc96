"""Material record types.

Materials are small frozen dataclasses: a common :class:`Material` base with
relative permittivity, and specialised records for semiconductors (band
structure, mobility), insulators (breakdown field) and conductors
(resistivity, workfunction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.constants import EPS_0, thermal_voltage
from repro.errors import MaterialError


@dataclass(frozen=True)
class Material:
    """Base material record.

    Attributes
    ----------
    name:
        Human readable identifier (unique within the library).
    eps_r:
        Relative permittivity.
    """

    name: str
    eps_r: float

    def __post_init__(self) -> None:
        if self.eps_r <= 0:
            raise MaterialError(
                f"{self.name}: relative permittivity must be positive, "
                f"got {self.eps_r}")

    @property
    def permittivity(self) -> float:
        """Absolute permittivity [F/m]."""
        return self.eps_r * EPS_0


@dataclass(frozen=True)
class Semiconductor(Material):
    """Semiconductor with band structure and bulk transport parameters.

    Attributes
    ----------
    bandgap:
        Bandgap [eV] at 300 K.
    affinity:
        Electron affinity [eV].
    nc, nv:
        Effective density of states of the conduction/valence band [m^-3].
    mu_n, mu_p:
        Low-field bulk mobility of electrons/holes [m^2/Vs].
    tau_n, tau_p:
        SRH carrier lifetimes [s].
    """

    bandgap: float = 1.12
    affinity: float = 4.05
    nc: float = 2.86e25
    nv: float = 2.66e25
    mu_n: float = 0.14
    mu_p: float = 0.045
    tau_n: float = 1e-7
    tau_p: float = 1e-7

    def __post_init__(self) -> None:
        super().__post_init__()
        for field_name in ("bandgap", "nc", "nv", "mu_n", "mu_p",
                           "tau_n", "tau_p"):
            value = getattr(self, field_name)
            if value <= 0:
                raise MaterialError(
                    f"{self.name}: {field_name} must be positive, got {value}")

    def intrinsic_density(self, temperature: float = 298.15) -> float:
        """Intrinsic carrier density [m^-3] at the given temperature."""
        scale = (temperature / 300.0) ** 1.5
        vt = thermal_voltage(temperature)
        return math.sqrt(self.nc * self.nv) * scale * math.exp(
            -self.bandgap / (2.0 * vt))


@dataclass(frozen=True)
class Insulator(Material):
    """Insulator with a breakdown field for liner-thickness sanity checks."""

    breakdown_field: float = 1e9  # V/m

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.breakdown_field <= 0:
            raise MaterialError(
                f"{self.name}: breakdown_field must be positive, "
                f"got {self.breakdown_field}")


@dataclass(frozen=True)
class Conductor(Material):
    """Conductor with resistivity and workfunction (for gate/MIV metal)."""

    resistivity: float = 1.7e-8  # Ohm m
    workfunction: float = 4.6  # eV

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.resistivity <= 0:
            raise MaterialError(
                f"{self.name}: resistivity must be positive, "
                f"got {self.resistivity}")

    def wire_resistance(self, length: float, width: float,
                        thickness: float) -> float:
        """Resistance [Ohm] of a rectangular wire."""
        if min(length, width, thickness) <= 0:
            raise MaterialError(
                f"{self.name}: wire dimensions must be positive")
        return self.resistivity * length / (width * thickness)
