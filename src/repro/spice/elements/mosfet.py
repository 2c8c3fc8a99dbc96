"""MOSFET element wrapping the BSIMSOI4-lite compact model.

Three terminals (drain, gate, source).  A MOSFET does not evaluate its
own model: :class:`~repro.spice.mna.MnaAssembler` evaluates all devices
that share a model instance in one compact-model call per assembly and
hands each device its own values.  The static stamp is the linearised
drain current with numerically differentiated gm/gds (robust against
any future change in the model equations); the dynamic stamp carries
the model's conservative terminal charges with a numerical 3x3
capacitance Jacobian.  Both write through integer matrix positions
precomputed once per circuit by :meth:`Mosfet.stamp_plan`, entry for
entry in the order of the original node-name stamps.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.compact.model import BsimSoi4Lite
from repro.errors import NetlistError
from repro.spice.elements.base import Element, Stamper

#: Finite-difference step for gm/gds/capacitances [V].
FD_DELTA = 1e-4


class MosfetStamps(NamedTuple):
    """Matrix positions of one MOSFET's stamp entries, ground dropped.

    ``matrix`` holds ``(row, col, k)`` with ``k`` indexing
    ``(gm, -gm, gds, -gds)``; ``rhs`` holds ``(row, k)`` with ``k``
    indexing ``(-ieq, ieq)``; ``charge`` holds ``(row, i)`` with ``i``
    indexing the charges ``(qg, qd, qs)``; ``cap`` holds
    ``(row, col, k)`` with ``k`` indexing the row-major 3x3 Jacobian
    ``dq_i/dv_j`` over terminals (gate, drain, source).
    """

    matrix: Tuple[Tuple[int, int, int], ...]
    rhs: Tuple[Tuple[int, int], ...]
    charge: Tuple[Tuple[int, int], ...]
    cap: Tuple[Tuple[int, int, int], ...]


class Mosfet(Element):
    """Compact-model MOSFET (nodes: drain, gate, source)."""

    def __init__(self, name: str, drain: str, gate: str, source: str,
                 model: BsimSoi4Lite):
        super().__init__(name, (drain, gate, source))
        if not isinstance(model, BsimSoi4Lite):
            raise NetlistError(f"{name}: model must be a BsimSoi4Lite")
        self.model = model

    def stamp_plan(self, row: Callable[[str], Optional[int]]) -> MosfetStamps:
        """Integer stamp positions, given ``row(node)`` (None = ground)."""
        drain, gate, source = (row(n) for n in self.nodes)
        # Companion i = ids + gm * d(vgs) + gds * d(vds), flowing d->s:
        # the transconductance entries, then the output conductance.
        matrix = ((drain, gate, 0), (drain, source, 1),
                  (source, gate, 1), (source, source, 0),
                  (drain, drain, 2), (source, source, 2),
                  (drain, source, 3), (source, drain, 3))
        terminals = (gate, drain, source)
        return MosfetStamps(
            matrix=tuple(e for e in matrix
                         if e[0] is not None and e[1] is not None),
            rhs=tuple(e for e in ((drain, 0), (source, 1))
                      if e[0] is not None),
            charge=tuple((r, i) for i, r in enumerate(terminals)
                         if r is not None),
            cap=tuple((r, c, 3 * i + j)
                      for i, r in enumerate(terminals) if r is not None
                      for j, c in enumerate(terminals) if c is not None))

    # ------------------------------------------------------------------
    # stamps (values come from the assembler's grouped evaluation)
    # ------------------------------------------------------------------
    def stamp_static(self, stamper: Stamper, plan: MosfetStamps,
                     gm: float, gds: float, ieq: float) -> None:
        """Stamp the drain-current companion: gm, gds and the equivalent
        current ``ieq = ids - gm * vgs - gds * vds``."""
        matrix = stamper.matrix
        values = (gm, -gm, gds, -gds)
        for r, c, k in plan.matrix:
            matrix[r, c] += values[k]
        rhs = stamper.rhs
        currents = (-ieq, ieq)
        for r, k in plan.rhs:
            rhs[r] += currents[k]

    def stamp_dynamic(self, charge_vector: np.ndarray,
                      cap_matrix: np.ndarray, plan: MosfetStamps,
                      charges: Sequence[float],
                      jacobian: Sequence[float]) -> None:
        """Accumulate the terminal charges ``(qg, qd, qs)`` and the
        row-major capacitance Jacobian over (gate, drain, source)."""
        for r, i in plan.charge:
            charge_vector[r] += charges[i]
        for r, c, k in plan.cap:
            cap_matrix[r, c] += jacobian[k]
