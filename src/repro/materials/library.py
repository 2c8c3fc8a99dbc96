"""The material library used by the paper's process (Section II).

Silicon for the thin film and active regions, SiO2 for every insulator
(BOX, ILD, gate oxide liner, interconnect dielectric), Si3N4 for spacers
and copper for the gate, MIV and interconnect layers.
"""

from __future__ import annotations

from repro.materials.material import Conductor, Insulator, Semiconductor

#: Thin-film silicon (undoped channel; S/D doped separately).
SILICON = Semiconductor(
    name="Si",
    eps_r=11.7,
    bandgap=1.12,
    affinity=4.05,
    nc=2.86e25,
    nv=2.66e25,
    mu_n=0.14,   # 1400 cm^2/Vs bulk; thin-film degradation applied in tcad
    mu_p=0.045,  # 450 cm^2/Vs bulk
    tau_n=1e-7,
    tau_p=1e-7,
)

#: SiO2 — gate oxide liner, BOX, ILD, interconnect dielectric.
SILICON_DIOXIDE = Insulator(name="SiO2", eps_r=3.9, breakdown_field=1e9)

#: Si3N4 — spacer material.
SILICON_NITRIDE = Insulator(name="Si3N4", eps_r=7.5, breakdown_field=1e9)

#: Copper — gate, MIV, M1/M2 and via metal.  The workfunction is set to
#: near-midgap (4.65 eV) which is the usual choice for metal-gate FDSOI.
COPPER = Conductor(name="Cu", eps_r=1.0, resistivity=1.72e-8, workfunction=4.65)
