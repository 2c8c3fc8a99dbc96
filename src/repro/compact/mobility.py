"""MOBMOD=4-style effective mobility (U0/UA/UB/UD/UCS).

    mu_eff = U0 / (1 + UA * Eeff + UB * Eeff^2
                     + UD * (vt / (Vgsteff + 2 vt))^UCS)

with the effective vertical field estimated from the overdrive,
``Eeff = (Vgsteff + 2 Vth_ref) / (6 TOX)`` — the standard BSIM surrogate.
"""

from __future__ import annotations

import numpy as np

#: Reference voltage entering the Eeff surrogate [V].
EEFF_VTH_REF = 0.4


def effective_field(vgsteff, t_ox: float) -> np.ndarray:
    """Vertical effective field surrogate [V/m]."""
    vgsteff = np.asarray(vgsteff, dtype=float)
    return (vgsteff + 2.0 * EEFF_VTH_REF) / (6.0 * t_ox)


def effective_mobility(vgsteff, t_ox: float, u0, ua, ub, ud, ucs,
                       vt: float) -> np.ndarray:
    """Effective mobility [m^2/Vs] (vectorised in vgsteff).

    The parameters are Python floats, or (R, 1, ...) columns against a
    ``vgsteff`` with R leading rows.  The Coulomb term's branch and its
    ``** UCS`` are then taken row by row with each row's Python floats,
    so a row keeps numpy's scalar-exponent power (``x ** 2.0`` is a
    square, ``x ** 0.5`` a square root) instead of an elementwise
    ``np.power`` that can differ in the last bit.
    """
    vgsteff = np.asarray(vgsteff, dtype=float)
    e_eff = effective_field(vgsteff, t_ox)
    denom = 1.0 + ua * e_eff + ub * e_eff * e_eff
    if isinstance(ud, np.ndarray) and ud.ndim:
        rows = zip(np.ravel(ud).tolist(), np.ravel(ucs).tolist())
        for r, (ud_r, ucs_r) in enumerate(rows):
            denom[r] = _with_coulomb(denom[r], vgsteff[r], ud_r, ucs_r, vt)
    else:
        denom = _with_coulomb(denom, vgsteff, ud, ucs, vt)
    return u0 / np.maximum(denom, 1e-6)


def _with_coulomb(denom, vgsteff, ud: float, ucs: float,
                  vt: float) -> np.ndarray:
    """``denom`` plus the UD-weighted Coulomb term of one parameter set."""
    if ud > 0.0:
        return denom + ud * (vt / (vgsteff + 2.0 * vt)) ** ucs
    return denom
