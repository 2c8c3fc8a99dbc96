"""Carrier statistics.

The paper's TCAD deck uses Fermi statistics; for the undoped thin film at
the inversion densities of interest, Boltzmann statistics with a smooth
Fermi-Dirac correction factor is an excellent and numerically benign
approximation.  Arguments are clipped to avoid overflow, which also acts
as a crude degeneracy limit.
"""

from __future__ import annotations

import numpy as np

#: Clip for exponential arguments (exp(60) ~ 1e26 keeps densities finite).
EXP_CLIP = 60.0


def _safe_exp(arg: np.ndarray) -> np.ndarray:
    """Exponential with argument clipping for numerical robustness."""
    return np.exp(np.clip(arg, -EXP_CLIP, EXP_CLIP))


def boltzmann_n(psi: np.ndarray, phi_n: float, ni: float, vt: float) -> np.ndarray:
    """Electron density [m^-3] at potential ``psi`` with electron
    quasi-Fermi potential ``phi_n`` (both in volts)."""
    return ni * _safe_exp((np.asarray(psi) - phi_n) / vt)


def boltzmann_p(psi: np.ndarray, phi_p: float, ni: float, vt: float) -> np.ndarray:
    """Hole density [m^-3] at potential ``psi`` with hole quasi-Fermi
    potential ``phi_p``."""
    return ni * _safe_exp((phi_p - np.asarray(psi)) / vt)


def fermi_correction(n: np.ndarray, nc: float) -> np.ndarray:
    """First-order Fermi-Dirac degeneracy correction factor.

    Returns a multiplicative factor <= 1 applied to Boltzmann densities,
    using the Joyce-Dixon style first term: n_FD ~ n_B / (1 + n_B/(8 Nc)).
    Negligible below ~0.1 Nc, which keeps the non-degenerate limit exact.
    """
    n = np.asarray(n, dtype=float)
    return 1.0 / (1.0 + n / (8.0 * nc))
