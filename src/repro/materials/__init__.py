"""Material models for the FDSOI M3D process.

The paper models all semiconducting regions with thin-film silicon, all
insulators (gate oxide liner, BOX, ILD, interconnect dielectric) with SiO2,
spacers with Si3N4, and all conductors (gate, MIV, M1/M2, vias) with copper.
"""

from repro.materials.material import (
    Conductor,
    Insulator,
    Material,
    Semiconductor,
)
from repro.materials.library import (
    COPPER,
    SILICON,
    SILICON_DIOXIDE,
    SILICON_NITRIDE,
)

__all__ = [
    "Material",
    "Semiconductor",
    "Insulator",
    "Conductor",
    "SILICON",
    "SILICON_DIOXIDE",
    "SILICON_NITRIDE",
    "COPPER",
]
