"""Shockley-Read-Hall recombination / generation.

The paper's TCAD deck enables the SRH model.  In the reproduction it sets
the off-state leakage floor of the Id-Vg characteristics: generation in
the drain-side depleted film contributes a bias-independent minimum
current that the charge-sheet transport model alone would not produce.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import Q


@dataclass(frozen=True)
class SrhParameters:
    """SRH model parameters.

    Attributes
    ----------
    tau_n, tau_p:
        Carrier lifetimes [s].
    n1, p1:
        Trap-level densities (``ni`` for midgap traps) [m^-3].
    """

    tau_n: float = 1e-7
    tau_p: float = 1e-7
    n1: float = 1.0e16
    p1: float = 1.0e16

    def __post_init__(self) -> None:
        if min(self.tau_n, self.tau_p) <= 0:
            raise ValueError("SRH lifetimes must be positive")
        if min(self.n1, self.p1) <= 0:
            raise ValueError("SRH trap densities must be positive")


def generation_leakage(volume: float, ni: float,
                       params: SrhParameters) -> float:
    """Worst-case generation current [A] from a fully depleted volume.

    In full depletion n ~ p ~ 0, so U -> -ni^2/(tau_p n1 + tau_n p1)
    = -ni/(tau_n + tau_p) for midgap traps; the leakage current is
    q |U| times the depleted volume.
    """
    if volume < 0:
        raise ValueError(f"volume must be non-negative, got {volume}")
    u_gen = ni / (params.tau_n + params.tau_p)
    return Q * u_gen * volume
