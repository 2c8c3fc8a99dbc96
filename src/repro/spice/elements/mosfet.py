"""MOSFET element wrapping the BSIMSOI4-lite compact model.

Three terminals (drain, gate, source).  The assembler evaluates every
MOSFET of a batch, whatever its model instance, in one compact-model
call per assembly (:mod:`repro.spice.mna`); the static stamp is the
linearised drain current with numerically differentiated gm/gds
(robust against any future change in the model equations), the
dynamic stamp the model's conservative terminal charges with a
numerical 3x3 capacitance Jacobian.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.compact.model import BsimSoi4Lite
from repro.errors import NetlistError
from repro.spice.elements.base import Element, StampPlan, without_ground

#: Finite-difference step for gm/gds/capacitances [V].
FD_DELTA = 1e-4


class Mosfet(Element):
    """Compact-model MOSFET (nodes: drain, gate, source)."""

    def __init__(self, name: str, drain: str, gate: str, source: str,
                 model: BsimSoi4Lite):
        super().__init__(name, (drain, gate, source))
        if not isinstance(model, BsimSoi4Lite):
            raise NetlistError(f"{name}: model must be a BsimSoi4Lite")
        self.model = model

    def stamp_plan(self, rows, branch) -> StampPlan:
        """Matrix ``k`` indexes ``(gm, -gm, gds, -gds)`` and rhs ``k``
        ``(-ieq, ieq)``; charge ``k`` indexes ``(qg, qd, qs)`` and cap
        ``k`` the row-major 3x3 Jacobian ``dq_i/dv_j`` over terminals
        (gate, drain, source)."""
        drain, gate, source = rows
        terminals = (gate, drain, source)
        return StampPlan(
            # Companion i = ids + gm * d(vgs) + gds * d(vds), flowing
            # d->s: the transconductance entries, then the output
            # conductance.
            matrix=without_ground(
                ((drain, gate, 0), (drain, source, 1),
                 (source, gate, 1), (source, source, 0),
                 (drain, drain, 2), (source, source, 2),
                 (drain, source, 3), (source, drain, 3))),
            rhs=without_ground(((drain, 0), (source, 1))),
            charge=without_ground(tuple(
                (r, i) for i, r in enumerate(terminals))),
            cap=without_ground(tuple(
                (r, c, 3 * i + j) for i, r in enumerate(terminals)
                for j, c in enumerate(terminals))))

    # Finite-difference points: offsets added to each device's nominal
    # (vgs, vds) (axis 0), one point per entry of axis 2, for
    # :meth:`stamp_static` (the nominal current, then central
    # differences in vgs and in vds) and :meth:`stamp_dynamic` (the
    # nominal charges, then forward differences in vgs and in vds).
    # -0.0 is the exact identity of ``+`` (x + -0.0 is x, -0.0
    # included), and x + -d is x - d bit for bit.
    static_offsets = np.array(
        [[-0.0, FD_DELTA, -FD_DELTA, -0.0, -0.0],
         [-0.0, -0.0, -0.0, FD_DELTA, -FD_DELTA]]).reshape(2, 1, 5, 1)
    dynamic_offsets = np.array(
        [[-0.0, FD_DELTA, -0.0],
         [-0.0, -0.0, FD_DELTA]]).reshape(2, 1, 3, 1)

    #: Per target, the value each plan ``k`` indexes, as (array, part,
    #: sign): part ``part`` of a device's row of array ``array`` of the
    #: arrays :meth:`stamp_static` (matrix, rhs) or :meth:`stamp_dynamic`
    #: (charge, cap) return, times ``sign``.
    value_layout = StampPlan(
        matrix=((0, 0, 1.0), (0, 0, -1.0), (0, 1, 1.0), (0, 1, -1.0)),
        rhs=((1, 0, -1.0), (1, 0, 1.0)),
        charge=((0, 0, 1.0), (0, 3, 1.0), (0, 6, 1.0)),
        cap=tuple(value for i in range(3) for value in (
            (1, 2 * i, 1.0), (1, 2 * i + 1, 1.0), (2, i, -1.0))))
    #: Parts per device of each array of :meth:`stamp_static` and of
    #: :meth:`stamp_dynamic`.
    static_parts = (2, 1)
    dynamic_parts = (9, 6, 3)

    # The MOSFETs' values, for m devices over K runs, from one model
    # call on their finite-difference points; called once per assembly
    # (and counted by benchmarks/perf, so they stay in this class's own
    # namespace).
    @staticmethod
    def stamp_static(ids: np.ndarray, vgs: np.ndarray, vds: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """``(gm, gds)`` (m, 2, K) and ``ieq = ids - gm*vgs - gds*vds``
        (m, K) from the currents ``ids`` (m, 5·K) at the
        :attr:`static_offsets` points of the nominal (m, K) ``vgs`` and
        ``vds``."""
        m, runs = vgs.shape
        ids = ids.reshape(m, 5, runs)
        g = (ids[:, 1::2] - ids[:, 2::2]) / (2.0 * FD_DELTA)
        return g, ids[:, 0] - g[:, 0] * vgs - g[:, 1] * vds

    @staticmethod
    def stamp_dynamic(charges: Tuple[np.ndarray, np.ndarray, np.ndarray]
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """From the charges ``(qg, qd, qs)``, each (m, 3·K), at the
        :attr:`dynamic_offsets` points: the charges (m, terminal (g, d,
        s), point, K), their Jacobian ``dq/dv`` over (gate, drain)
        (m, terminal, 2, K) and ``dq/dvg + dq/dvd`` (m, terminal, K),
        which is ``-dq/dvs``."""
        q = np.concatenate(charges, axis=1)
        q = q.reshape(len(q), 3, 3, -1)
        jacobian = (q[:, :, 1:] - q[:, :, :1]) / FD_DELTA
        return q, jacobian, jacobian[:, :, 0] + jacobian[:, :, 1]
