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

import numpy as np

from repro.compact.subthreshold import clip_exponent, soft_plus

#: ln 2: ``logaddexp(r, -r) - ln 2`` is ``ln cosh r``.
_LOG_2 = np.log(2.0)


# The two preludes below turn parameters into quantities the equations
# take; :class:`~repro.compact.columns.DeviceColumns` computes them once
# per device set.
def transition_width(moin, vt):
    """Width [V] of the inversion transition: MOIN thermal voltages,
    MOIN at least 0.1."""
    return np.maximum(moin, 0.1) * vt


def turn_on_voltage(ckappa):
    """Inner-fringe transition voltage [V]: CKAPPA, at least 1 mV."""
    return np.maximum(ckappa, 1e-3)


def inversion_transition(vg, centre, width) -> np.ndarray:
    """Logistic transition factor f(Vg) in [0, 1] centred at ``centre``
    (Vth + DELVT), ``width`` from :func:`transition_width`."""
    vg = np.asarray(vg, dtype=float)
    x = clip_exponent((vg - centre) / width)
    return 1.0 / (1.0 + np.exp(-x))


def fringe_turn_on(vg, turn_on) -> np.ndarray:
    """Bias-dependent inner-fringe activation g(Vg) in [0, 1], with
    ``turn_on`` from :func:`turn_on_voltage`."""
    vg = np.asarray(vg, dtype=float)
    return 0.5 * (1.0 + np.tanh(vg / turn_on))


def gate_capacitance(vg, centre, width, channel, static, fringe,
                     turn_on) -> np.ndarray:
    """Total Cgg(Vg) [F] at Vds = 0: ``channel`` (W L Cox) times f,
    plus ``static`` (W (CGSO + CGDO + CF)), plus ``fringe``
    (W (CGSL + CGDL)) times g."""
    f = inversion_transition(vg, centre, width)
    g = fringe_turn_on(vg, turn_on)
    return channel * f + static + fringe * g


def intrinsic_channel_charge(vg, centre, width, channel) -> np.ndarray:
    """Gate-side intrinsic channel charge [C]: the antiderivative of the
    intrinsic part of :func:`gate_capacitance` (soft-plus form)."""
    return channel * soft_plus(np.asarray(vg, dtype=float) - centre, width)


def fringe_charge(vg, fringe, turn_on) -> np.ndarray:
    """Bias-dependent inner-fringe charge [C] of one side, ``fringe``
    being W CGSL (source) or W CGDL (drain).

    Antiderivative of ``c * g(v)``: c * (v + CKAPPA ln cosh(v/CKAPPA)) / 2.
    """
    vg = np.asarray(vg, dtype=float)
    ratio = clip_exponent(vg / turn_on)
    anti = 0.5 * (vg + turn_on * (np.logaddexp(ratio, -ratio) - _LOG_2))
    return fringe * anti
