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

    #: Values per device that matrix, rhs, charge and cap ``k`` index.
    value_counts = (4, 2, 3, 9)

    # The MOSFETs' value rows, device after device, for m devices over
    # K runs; called once per assembly (and counted by benchmarks/perf,
    # so they stay in this class's own namespace).
    @staticmethod
    def stamp_static(gm: np.ndarray, gds: np.ndarray, ieq: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """Matrix rows ``(gm, -gm, gds, -gds)`` (4m, K) and rhs rows
        ``(-ieq, ieq)`` (2m, K) from (m, K) arrays."""
        runs = gm.shape[1]
        return (np.concatenate((gm, -gm, gds, -gds), 1).reshape(-1, runs),
                np.concatenate((-ieq, ieq), 1).reshape(-1, runs))

    @staticmethod
    def stamp_dynamic(charges: np.ndarray, jacobian: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Charge rows ``(qg, qd, qs)`` (3m, K) from (3, m, K) charges
        and cap rows (9m, K) from the (3, 3, m, K) Jacobian
        ``dq_i/dv_j``, row-major over (gate, drain, source)."""
        _, m, runs = charges.shape
        return (charges.transpose(1, 0, 2).reshape(-1, runs),
                jacobian.reshape(9, m, runs).transpose(1, 0, 2)
                .reshape(-1, runs))
