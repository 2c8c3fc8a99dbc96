"""Subthreshold swing and the unified overdrive (CDSC/CDSCD).

The swing ideality factor is

    n = 1 + (CDSC + CDSCD * Vds) / Cox

and the smooth overdrive that unifies weak and strong inversion is the
standard BSIM soft-plus form

    Vgsteff = n * vt * ln(1 + exp((Vgs - Vth) / (n * vt))).
"""

from __future__ import annotations

import numpy as np

#: Clip for exponential arguments.
_EXP_CLIP = 80.0


def clip_exponent(x: np.ndarray) -> np.ndarray:
    """``x`` clipped to [-80, 80]: ``np.clip``'s values (NaN and -0.0
    included) from two ufunc calls, without its Python-level wrapper."""
    return np.minimum(np.maximum(x, -_EXP_CLIP), _EXP_CLIP)


def ideality_factor(cdsc: float, cdscd: float, cox: float, vds) -> np.ndarray:
    """Swing ideality factor n (dimensionless, >= 1)."""
    vds = np.asarray(vds, dtype=float)
    n = 1.0 + (cdsc + cdscd * vds) / cox
    return np.maximum(n, 1.0)


def soft_plus(x: np.ndarray, scale) -> np.ndarray:
    """Numerically safe ``scale * ln(1 + exp(x / scale))`` (vectorised).

    ``scale`` may be a scalar or an array broadcastable against ``x``.
    """
    x = np.asarray(x, dtype=float)
    scale = np.asarray(scale, dtype=float)
    ratio = x / scale
    out = np.where(
        ratio > _EXP_CLIP,
        x,
        scale * np.log1p(np.exp(clip_exponent(ratio))),
    )
    return out


def effective_overdrive(vgs, vth, n, vt: float) -> np.ndarray:
    """Unified overdrive Vgsteff [V] (always positive)."""
    vgs = np.asarray(vgs, dtype=float)
    vth = np.asarray(vth, dtype=float)
    n = np.asarray(n, dtype=float)
    return soft_plus(vgs - vth, n * vt)
