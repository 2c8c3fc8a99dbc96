"""Pao-Sah / charge-sheet drain-current model on top of the 1-D Poisson.

The gradual-channel Pao-Sah reduction gives

    I_DS = (W / L) * mu_eff * integral_0^{V_DS} Q_inv(V_G, V) dV

where ``Q_inv(V_G, V)`` is the sheet inversion charge from the vertical
Poisson solve with the channel quasi-Fermi potential at ``V``.  Because
``Q_inv`` decays as ``exp(-V/V_t)`` in weak inversion, the integral
captures both drift and diffusion, and subthreshold saturation emerges
without special casing.  Velocity saturation is applied through a smooth
``V_DSeff`` clamp and a triode degradation factor, and channel-length
modulation as a linear post-factor — the same structure BSIM-class models
use, which keeps the later compact-model fit honest but not trivial.

:meth:`ChargeSheetModel.drain_currents` evaluates a whole set of bias
points (a device's sweep plan) with 13 stacked Poisson solves: one
cold-start solve of every point's source-end charge, then one per
Gauss-Legendre step, each point warm-starting from its own previous step.
The per-point V_DSsat, V_DSeff, mobility and integral bookkeeping stays in
scalar floats in a fixed order, so every current is bit-identical to a
one-point :meth:`ChargeSheetModel.drain_current`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from repro.errors import SimulationError
from repro.tcad.poisson1d import Poisson1D
from repro.tcad.short_channel import ShortChannelModel
from repro.tcad.srh import SrhParameters, generation_leakage
from repro.tcad.velocity import MobilityModel


@dataclass
class ChargeSheetModel:
    """Drain current / gate charge evaluator for one device geometry.

    Attributes
    ----------
    poisson:
        Vertical electrostatics solver (already includes any MIV gate-
        coupling boost through its effective oxide thickness).
    mobility:
        Mobility model (already includes narrow-width degradation).
    short_channel:
        Characteristic-length corrections.
    width:
        Total electrical width [m].
    l_gate:
        Drawn gate length [m].
    l_eff_factor:
        Effective-length multiplier (> 1 for the 4-channel ring gate).
    clm_coefficient:
        Channel-length-modulation slope [1/V].
    quadrature_points:
        Gauss-Legendre points for the channel integral.
    """

    poisson: Poisson1D
    mobility: MobilityModel
    short_channel: ShortChannelModel
    width: float
    l_gate: float
    l_eff_factor: float = 1.0
    clm_coefficient: float = 0.06
    quadrature_points: int = 12
    srh: SrhParameters = SrhParameters()

    def __post_init__(self) -> None:
        if self.width <= 0 or self.l_gate <= 0:
            raise SimulationError("device dimensions must be positive")
        if self.l_eff_factor < 1.0:
            raise SimulationError("l_eff_factor must be >= 1")
        nodes, weights = np.polynomial.legendre.leggauss(self.quadrature_points)
        self._gl_nodes = nodes
        self._gl_weights = weights
        self._vt = self.poisson.vt

    @property
    def l_eff(self) -> float:
        """Effective channel length [m]."""
        return self.l_gate * self.l_eff_factor

    def _effective_gate_voltage(self, vgs: float, vds: float) -> float:
        """Apply DIBL and threshold roll-off as a gate-voltage shift."""
        sigma = self.short_channel.dibl(self.l_eff)
        rolloff = self.short_channel.vth_rolloff(self.l_eff)
        return vgs + sigma * vds + rolloff

    def _vdsat(self, q0: float) -> float:
        """Smooth saturation voltage from velocity-saturation theory,
        given the source-end inversion charge ``q0``."""
        cox = self.poisson.oxide_capacitance()
        v_ov = q0 / cox
        esat_l = self.mobility.saturation_field(q0) * self.l_eff
        return 3.0 * self._vt + esat_l * v_ov / (esat_l + v_ov + 1e-12)

    def drain_current(self, vgs: float, vds: float) -> float:
        """Drain current [A] for one bias point (a one-point
        :meth:`drain_currents`)."""
        return self.drain_currents([vgs], [vds])[0]

    def drain_currents(self, vgs: ArrayLike, vds: ArrayLike) -> np.ndarray:
        """Drain currents [A] of a set of (source-referenced) bias points.

        Negative ``vds`` is handled by source/drain exchange symmetry.
        All points share stacked :meth:`Poisson1D.solve` calls: one
        cold-start solve of the source-end charge at V = 0, then one per
        quadrature step, where each point's step k warm-starts from its
        own step k-1.  Each point's result is bit-identical to solving it
        alone.
        """
        vgs = np.asarray(vgs, dtype=float)
        vds = np.asarray(vds, dtype=float)
        if vgs.shape != vds.shape or vgs.ndim != 1:
            raise SimulationError("vgs and vds must be equal-length 1-D")
        reverse = vds < 0
        vgs = np.where(reverse, vgs - vds, vgs)
        vds = np.abs(vds)
        currents = np.zeros(vds.size)
        live = np.flatnonzero(vds > 0)
        if not live.size:
            return currents
        points = [(float(vgs[i]), float(vds[i])) for i in live]
        vg_eff = np.array([self._effective_gate_voltage(vg, vd)
                           for vg, vd in points])

        # Python floats from here on: the power laws below must round
        # exactly as they do for a single point.
        q0 = self.poisson.solve(vg_eff, 0.0).q_inv.tolist()
        # Smooth clamp of the integration limit (velocity saturation).
        vdseff = [vd / (1.0 + (vd / self._vdsat(q)) ** 4) ** 0.25
                  for (_, vd), q in zip(points, q0)]

        # Gauss-Legendre integral of Q over [0, vdseff], with the mobility
        # evaluated at the source-end charge (standard charge-sheet
        # simplification: one mu_eff per bias point, not per channel slice).
        half = np.array(vdseff) / 2.0
        v_points = half[:, None] * (self._gl_nodes + 1.0)
        charges = np.empty_like(v_points)
        psi0 = None
        for k in range(self.quadrature_points):
            solution = self.poisson.solve(vg_eff, v_points[:, k], psi0=psi0)
            psi0 = solution.psi
            charges[:, k] = solution.q_inv

        for row, i in enumerate(live):
            vds_i = points[row][1]
            integral = 0.0
            for w, q in zip(self._gl_weights, charges[row]):
                integral += w * q
            integral *= half[row]
            integral *= self.mobility.effective_mobility(q0[row])
            esat_l = self.mobility.saturation_field(q0[row]) * self.l_eff
            triode_factor = 1.0 / (1.0 + vdseff[row] / esat_l)
            clm = 1.0 + self.clm_coefficient * max(vds_i - vdseff[row], 0.0)
            current = (self.width / self.l_eff) * integral * \
                triode_factor * clm
            currents[i] = current + self._leakage_floor(vds_i)
        return np.where(reverse, -currents, currents)

    def _leakage_floor(self, vds: float) -> float:
        """SRH generation leakage from the drain-side depleted film [A]."""
        depleted_volume = self.width * self.l_eff * self.poisson.stack.t_si
        floor = generation_leakage(depleted_volume, self.poisson.ni, self.srh)
        # Generation scales with the depletion bias; keep a soft V_DS factor.
        return floor * (vds / (vds + self._vt))

    def gate_capacitance_per_area(self, vgs: ArrayLike,
                                  delta: float = 2e-3) -> ArrayLike:
        """Small-signal C_GG per area [F/m^2] at V_DS = 0 (for C-V
        extraction); an array of ``vgs`` is one stacked solve."""
        return self.poisson.gate_capacitance(vgs, delta)

    def subthreshold_swing(self, vds: float = 0.05,
                           vg_low: float = 0.05, vg_high: float = 0.20) -> float:
        """Subthreshold swing [V/decade] between two weak-inversion biases."""
        i_low, i_high = self.drain_currents([vg_low, vg_high], [vds, vds])
        if i_low <= 0 or i_high <= 0 or i_high <= i_low:
            raise SimulationError("invalid subthreshold window")
        decades = np.log10(i_high / i_low)
        return (vg_high - vg_low) / float(decades)
