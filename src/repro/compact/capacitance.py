"""CAPMOD=3-style capacitance / charge model.

Total gate capacitance at Vds = 0 (the C-V extraction condition):

    Cgg(Vg) = W L Cox * f(Vg)                       intrinsic channel
            + W (CGSO + CGDO + CF)                  overlap + outer fringe
            + W (CGSL + CGDL) * g(Vg)               bias-dependent inner fringe

with ``f`` the logistic inversion transition centred at ``Vth + DELVT``
with width ``MOIN * kT/q``, and ``g`` a tanh turn-on with transition
voltage CKAPPA controlling the lower-biased region (exactly the roles the
paper assigns to CKAPPA/CGSL/CGDL/DELVT/MOIN/CF/CGSO/CGDO).

For transient simulation the same expressions are integrated into terminal
charges: the intrinsic channel charge uses the soft-plus antiderivative of
``f`` partitioned 50/50 between source and drain, and overlap charges are
linear in their controlling voltages — a conservative charge model, so the
circuit simulator's charge balance is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compact.parameters import per_row
from repro.compact.subthreshold import soft_plus

_EXP_CLIP = 80.0


@dataclass(frozen=True)
class CapacitanceParameters:
    """Capacitance-stage parameters (see Table II / Section III-B).

    Each is a Python float, or an (R, 1, ...) column of R parameter sets
    for :func:`gate_capacitance`.
    """

    ckappa: float
    delvt: float
    cf: float
    cgso: float
    cgdo: float
    moin: float
    cgsl: float
    cgdl: float


def inversion_transition(vg, vth, delvt, moin, vt: float) -> np.ndarray:
    """Logistic transition factor f(Vg) in [0, 1]."""
    vg = np.asarray(vg, dtype=float)
    width = per_row(lambda m: max(m, 0.1) * vt, moin)
    x = np.clip((vg - (vth + delvt)) / width, -_EXP_CLIP, _EXP_CLIP)
    return 1.0 / (1.0 + np.exp(-x))


def fringe_turn_on(vg, ckappa) -> np.ndarray:
    """Bias-dependent inner-fringe activation g(Vg) in [0, 1]."""
    vg = np.asarray(vg, dtype=float)
    turn_on = per_row(lambda k: max(k, 1e-3), ckappa)
    return 0.5 * (1.0 + np.tanh(vg / turn_on))


def gate_capacitance(vg, params: CapacitanceParameters, vth,
                     cox: float, width: float, length: float,
                     vt: float) -> np.ndarray:
    """Total Cgg(Vg) [F] at Vds = 0.

    ``params`` and ``vth`` may hold (R, 1, ...) parameter-row columns;
    the result then has R leading rows.
    """
    f = inversion_transition(vg, vth, params.delvt, params.moin, vt)
    g = fringe_turn_on(vg, params.ckappa)
    intrinsic = width * length * cox * f
    static = width * (params.cgso + params.cgdo + params.cf)
    dynamic = width * (params.cgsl + params.cgdl) * g
    return intrinsic + static + dynamic


def intrinsic_channel_charge(vg, params: CapacitanceParameters, vth: float,
                             cox: float, width: float, length: float,
                             vt: float) -> np.ndarray:
    """Gate-side intrinsic channel charge [C]: the antiderivative of the
    intrinsic part of :func:`gate_capacitance` (soft-plus form)."""
    width_v = max(params.moin, 0.1) * vt
    q = soft_plus(np.asarray(vg, dtype=float) - (vth + params.delvt), width_v)
    return width * length * cox * q


def fringe_charge(vg, params: CapacitanceParameters, width: float,
                  side: str) -> np.ndarray:
    """Bias-dependent inner-fringe charge [C] for ``side`` in {'s', 'd'}.

    Antiderivative of ``c * g(v)``: c * (v + CKAPPA ln cosh(v/CKAPPA)) / 2.
    """
    vg = np.asarray(vg, dtype=float)
    c = params.cgsl if side == "s" else params.cgdl
    k = max(params.ckappa, 1e-3)
    ratio = np.clip(vg / k, -_EXP_CLIP, _EXP_CLIP)
    anti = 0.5 * (vg + k * (np.logaddexp(ratio, -ratio) - np.log(2.0)))
    return width * c * anti
