"""Physical constants used throughout the device and circuit models.

All values are in SI units.  The thermal voltage is a function of
absolute temperature so that every consumer agrees on the same physics
(the paper uses TNOM = 25 C, i.e. 298.15 K).  Material properties
(bandgap, densities of states) live in :mod:`repro.materials`.
"""

from __future__ import annotations

#: Elementary charge [C].
Q = 1.602176634e-19

#: Boltzmann constant [J/K].
K_B = 1.380649e-23

#: Vacuum permittivity [F/m].
EPS_0 = 8.8541878128e-12

#: Nominal temperature used by the paper (TNOM = 25 C) [K].
T_NOM = 298.15


def thermal_voltage(temperature: float = T_NOM) -> float:
    """Return kT/q [V] at the given absolute temperature."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    return K_B * temperature / Q
