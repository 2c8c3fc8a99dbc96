"""Unified drain-current expression (VSAT, PVAG, CLM).

Standard BSIM-class structure:

    Esat    = 2 VSAT / mu_eff
    Vdsat   = Esat L Vgsteff / (Esat L + Vgsteff) + 3 vt      (smooth)
    Vdseff  = smooth-min(Vds, Vdsat)
    Ids0    = mu_eff Cox (W/L) Vgsteff (1 - Vdseff/(2(Vgsteff+2vt)))
                  * Vdseff / (1 + Vdseff/(Esat L))
    VA      = VA0 (1 + PVAG Vgsteff / (Esat L))
    Ids     = Ids0 (1 + (Vds - Vdseff) / VA)

plus a fixed generation-leakage floor so the log-scale subthreshold fit
is well posed at Vgs = 0 (the paper's TCAD includes SRH generation).
"""

from __future__ import annotations

import numpy as np

#: Base Early voltage [V] before the PVAG correction.
VA_BASE = 4.0

#: Smoothing voltage for the Vdseff clamp [V].
DELTA_VDSEFF = 0.01

#: Below this |Vds| [V] the textbook Vdseff expression loses all its
#: significant bits (it subtracts two O(Vdsat) numbers agreeing to
#: ~eps*Vdsat ~ 1e-17 V) and is evaluated through the conjugate form
#: instead.  Above it the textbook form is accurate to <~1e-5 relative
#: and is kept bit-for-bit so committed goldens stay byte-identical.
VDS_CONJUGATE_SWITCH = 1e-12

#: Leakage floor per unit width [A/m] (SRH generation surrogate).
LEAKAGE_PER_WIDTH = 1.2e-7


def saturation_voltage(vgsteff, esat_l, vt: float) -> np.ndarray:
    """Smooth saturation voltage [V].

    Classic velocity-saturation form evaluated on the bulk-charge
    voltage (Vgsteff + 2 vt): reduces to ~2 vt in subthreshold (the
    diffusion saturation voltage) and to the Esat-limited overdrive in
    strong inversion, and — unlike an additive +3 vt floor — never lets
    Vdseff run past the point where the triode expression would start
    decreasing.
    """
    vgsteff = np.asarray(vgsteff, dtype=float)
    esat_l = np.asarray(esat_l, dtype=float)
    v_bulk = vgsteff + 2.0 * vt
    return esat_l * v_bulk / (esat_l + v_bulk)


def effective_vds(vds, vdsat) -> np.ndarray:
    """Smooth minimum of Vds and Vdsat (BSIM Vdseff).

    The textbook form ``vdsat - (diff + sqrt(diff^2 + 4 delta
    vdsat)) / 2`` subtracts two nearly equal O(vdsat) numbers when
    ``vds << eps * vdsat``, rounding Vdseff (hence Ids) to zero and
    breaking monotonicity in Vgs at vanishing drain bias.  Its exact
    algebraic conjugate ``2 vdsat vds / (vdsat + vds + delta + root)``
    keeps every term positive and stays accurate down to denormal Vds,
    so it takes over below :data:`VDS_CONJUGATE_SWITCH`.
    """
    vds = np.asarray(vds, dtype=float)
    vdsat = np.asarray(vdsat, dtype=float)
    delta = DELTA_VDSEFF
    diff = vdsat - vds - delta
    root = np.sqrt(diff * diff + 4.0 * delta * vdsat)
    smooth = vdsat - 0.5 * (diff + root)
    tiny = np.abs(vds) < VDS_CONJUGATE_SWITCH
    if tiny.any():
        conjugate = 2.0 * vdsat * vds / (vdsat + vds + delta + root)
        smooth = np.where(tiny, conjugate, smooth)
    # Exactly zero at vds = 0; negative vds clamps to 0.
    return np.maximum(smooth, 0.0)


def drain_current(vgsteff, vds, mu_eff, cox: float, width: float,
                  length: float, vsat: float, pvag: float,
                  vt: float) -> np.ndarray:
    """Drain current [A] (vectorised; all voltage args broadcastable)."""
    vgsteff = np.asarray(vgsteff, dtype=float)
    vds = np.asarray(vds, dtype=float)
    mu_eff = np.asarray(mu_eff, dtype=float)

    esat_l = 2.0 * vsat / np.maximum(mu_eff, 1e-12) * length
    vdsat = saturation_voltage(vgsteff, esat_l, vt)
    vdseff = effective_vds(vds, vdsat)

    # BSIM bulk-charge form: stays positive down to deep subthreshold.
    # The linearisation term is clamped at its saturation value (1/2)
    # so the current cannot dip with rising Vds once Vdseff exceeds the
    # bulk-charge voltage (deep-subthreshold artefact otherwise).
    v_bulk = vgsteff + 2.0 * vt
    bulk_term = 1.0 - np.minimum(vdseff, v_bulk) / (2.0 * v_bulk)
    ids0 = (mu_eff * cox * (width / length) *
            vgsteff * bulk_term *
            vdseff / (1.0 + vdseff / esat_l))

    va = VA_BASE * (1.0 + pvag * vgsteff / esat_l)
    va = np.maximum(va, 0.3)
    clm = 1.0 + np.maximum(vds - vdseff, 0.0) / va

    floor = LEAKAGE_PER_WIDTH * width * vds / (vds + vt + 1e-12)
    return ids0 * clm + floor
