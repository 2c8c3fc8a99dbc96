"""MOBMOD=4-style effective mobility (U0/UA/UB/UD/UCS).

    mu_eff = U0 / (1 + UA * Eeff + UB * Eeff^2
                     + UD * (vt / (Vgsteff + 2 vt))^UCS)

with the effective vertical field estimated from the overdrive,
``Eeff = (Vgsteff + 2 Vth_ref) / (6 TOX)`` — the standard BSIM surrogate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Reference voltage entering the Eeff surrogate [V].
EEFF_VTH_REF = 0.4


def effective_field(vgsteff, t_ox: float) -> np.ndarray:
    """Vertical effective field surrogate [V/m]."""
    vgsteff = np.asarray(vgsteff, dtype=float)
    return (vgsteff + 2.0 * EEFF_VTH_REF) / (6.0 * t_ox)


def effective_mobility(vgsteff, t_ox, u0, ua, ub, ud, ucs,
                       vt) -> np.ndarray:
    """Effective mobility [m^2/Vs] (vectorised in vgsteff).

    The parameters are Python floats, or the (m, 1) columns of m devices
    against an (m, N) ``vgsteff``
    (:class:`~repro.compact.columns.DeviceColumns`); ``ucs`` is then the
    devices' :func:`coulomb_groups`.  The Coulomb term is taken group by
    group with each group's Python-float exponent, so a device keeps
    numpy's scalar-exponent power (``x ** 2.0`` is a square, ``x ** 0.5``
    a square root) instead of an elementwise ``np.power`` that can
    differ in the last bit.
    """
    vgsteff = np.asarray(vgsteff, dtype=float)
    e_eff = effective_field(vgsteff, t_ox)
    denom = 1.0 + ua * e_eff + ub * e_eff * e_eff
    if isinstance(ucs, tuple):
        for exponent, members in ucs:
            with_term = denom + coulomb_term(vgsteff, ud, exponent, vt)
            denom = (with_term if members is None
                     else np.where(members, with_term, denom))
    elif ud > 0.0:
        denom = denom + coulomb_term(vgsteff, ud, ucs, vt)
    return u0 / np.maximum(denom, 1e-6)


def coulomb_term(vgsteff, ud, ucs: float, vt) -> np.ndarray:
    """The Coulomb-scattering term ``UD * (vt / (Vgsteff + 2 vt))^UCS``."""
    return ud * (vt / (vgsteff + 2.0 * vt)) ** ucs


def coulomb_groups(ud: Sequence[float], ucs: Sequence[float]
                   ) -> Tuple[Tuple[float, Optional[np.ndarray]], ...]:
    """The devices with UD > 0 grouped by UCS, for
    :func:`effective_mobility`: ``(UCS, members)`` pairs, ``members`` an
    (m, 1) boolean column of the group's devices, or None when the group
    holds every device."""
    groups: Dict[float, List[bool]] = {}
    for row, (ud_r, ucs_r) in enumerate(zip(ud, ucs)):
        if ud_r > 0.0:
            groups.setdefault(ucs_r, [False] * len(ud))[row] = True
    return tuple((exponent, None if all(members)
                  else np.array(members).reshape(-1, 1))
                 for exponent, members in groups.items())
