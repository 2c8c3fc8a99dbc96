"""Short-channel electrostatics for thin-film FDSOI devices.

Uses the classical characteristic-length (natural length) theory: lateral
potential perturbations from source/drain decay into the channel as
``exp(-x / lambda)`` with

    lambda = sqrt( (eps_si / eps_ox) * t_si * t_ox * (1 + t_si/(4 lambda_f)) )

(we use the standard single-gate SOI form without the film correction for
clarity).  DIBL and threshold roll-off both scale with exp(-L / (2 lambda)).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, sqrt

from repro.materials import SILICON, SILICON_DIOXIDE


@dataclass(frozen=True)
class ShortChannelModel:
    """Characteristic-length based short-channel corrections.

    Attributes
    ----------
    t_si, t_ox:
        Film and front-oxide thickness [m].
    dibl_prefactor:
        Dimensionless prefactor mapping the decay term to DIBL [V/V].
    rolloff_prefactor:
        Prefactor mapping the decay term to threshold roll-off [V].
    swing_prefactor:
        Prefactor for subthreshold-swing degradation (fraction).
    """

    t_si: float
    t_ox: float
    dibl_prefactor: float = 0.45
    rolloff_prefactor: float = 0.25
    swing_prefactor: float = 0.6

    def __post_init__(self) -> None:
        if self.t_si <= 0 or self.t_ox <= 0:
            raise ValueError("film/oxide thickness must be positive")

    @property
    def natural_length(self) -> float:
        """Characteristic decay length lambda [m]."""
        ratio = SILICON.permittivity / SILICON_DIOXIDE.permittivity
        return sqrt(ratio * self.t_si * self.t_ox)

    def decay(self, l_gate: float) -> float:
        """Barrier-lowering decay factor exp(-L / (2 lambda))."""
        if l_gate <= 0:
            raise ValueError(f"gate length must be positive, got {l_gate}")
        return exp(-l_gate / (2.0 * self.natural_length))

    def dibl(self, l_gate: float) -> float:
        """Drain-induced barrier lowering coefficient sigma [V/V]:
        effective gate voltage becomes V_G + sigma * V_DS."""
        return self.dibl_prefactor * self.decay(l_gate)

    def vth_rolloff(self, l_gate: float, built_in: float = 0.55) -> float:
        """Threshold-voltage reduction [V] from charge sharing."""
        return self.rolloff_prefactor * built_in * self.decay(l_gate)
