"""MOSFET element wrapping the BSIMSOI4-lite compact model.

Three terminals (drain, gate, source).  A MOSFET does not evaluate its
own model: :class:`~repro.spice.mna.MnaAssembler` evaluates all devices
that share a model instance in one compact-model call per assembly and
hands each device its own values.  The static stamp is the linearised
drain current with numerically differentiated gm/gds (robust against
any future change in the model equations); the dynamic stamp carries
the model's conservative terminal charges with a numerical 3x3
capacitance Jacobian.
"""

from __future__ import annotations

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

    # The values come from the assembler's grouped evaluation; the
    # writers are Element's, bound here as well so that the MOSFET
    # stamps are an attribute of their own (benchmarks/perf counts
    # calls to them).
    stamp_static = Element.stamp_static
    stamp_dynamic = Element.stamp_dynamic
