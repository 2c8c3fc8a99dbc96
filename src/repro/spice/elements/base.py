"""Element interface: stamp plans fixed per circuit, values per assembly.

Every element linearises itself around the current solution estimate
and contributes entries to the MNA system in two steps:

* :meth:`Element.stamp_plan` — once per circuit, the integer positions
  of its entries (a :class:`StampPlan`), ground rows and columns
  dropped;
* per assembly, the values of those entries — :meth:`static_values`
  (resistive currents and their Jacobian, used by DC and transient
  alike) and :meth:`dynamic_values` (terminal charges and their
  capacitance Jacobian, transient only) — written through the plan by
  :meth:`stamp_static` / :meth:`stamp_dynamic`.

The MOSFET has no value methods of its own: the assembler evaluates
MOSFETs per model group and hands each one its values
(:mod:`repro.spice.mna`).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import NetlistError

GROUND = "0"


class StampPlan(NamedTuple):
    """Positions of one element's stamp entries, ground dropped.

    ``matrix`` holds ``(row, col, k)``: ``matrix[row, col] +=
    matrix_values[k]``; ``rhs`` holds ``(row, k)`` into the rhs values;
    ``charge`` and ``cap`` do the same for the charge vector and the
    capacitance matrix.  Entries are written in the order listed.
    """

    matrix: Tuple[Tuple[int, int, int], ...] = ()
    rhs: Tuple[Tuple[int, int], ...] = ()
    charge: Tuple[Tuple[int, int], ...] = ()
    cap: Tuple[Tuple[int, int, int], ...] = ()


def without_ground(entries: Sequence[Tuple]) -> Tuple[Tuple, ...]:
    """The plan entries whose row and column (all but the last, value
    index, field) are not ground (None), in the given order."""
    return tuple(e for e in entries if None not in e[:-1])


class Element:
    """Base class for all circuit elements."""

    #: Number of extra (branch-current) unknowns this element adds.
    n_branch = 0

    def __init__(self, name: str, nodes: Sequence[str]):
        if not name:
            raise NetlistError("element needs a non-empty name")
        self.name = name
        self.nodes: Tuple[str, ...] = tuple(nodes)
        if len(self.nodes) < 2:
            raise NetlistError(f"{name}: element needs at least two nodes")

    def stamp_plan(self, rows: Sequence[Optional[int]],
                   branch: Optional[int]) -> StampPlan:
        """Stamp positions, given the row of each node in node order
        (None = ground) and the element's branch row (None = none)."""
        raise NotImplementedError

    def static_values(self, time: float, scale: float
                      ) -> Tuple[Sequence[float], Sequence[float]]:
        """``(matrix values, rhs values)`` at ``time``; ``scale``
        multiplies every independent source (source continuation)."""
        return (), ()

    def dynamic_values(self, x: Sequence[float],
                       terminals: Sequence[int]
                       ) -> Tuple[Sequence[float], Sequence[float]]:
        """``(charge values, cap values)`` at the estimate ``x`` (with a
        trailing ground slot), whose entries ``terminals`` are this
        element's node voltages."""
        return (), ()

    def stamp_static(self, matrix: np.ndarray, rhs: np.ndarray,
                     plan: StampPlan, matrix_values: Sequence[float],
                     rhs_values: Sequence[float]) -> None:
        """Accumulate resistive values through ``plan``."""
        for r, c, k in plan.matrix:
            matrix[r, c] += matrix_values[k]
        for r, k in plan.rhs:
            rhs[r] += rhs_values[k]

    def stamp_dynamic(self, charge: np.ndarray, cap: np.ndarray,
                      plan: StampPlan, charge_values: Sequence[float],
                      cap_values: Sequence[float]) -> None:
        """Accumulate charge values through ``plan``."""
        for r, k in plan.charge:
            charge[r] += charge_values[k]
        for r, c, k in plan.cap:
            cap[r, c] += cap_values[k]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} {self.nodes}>"
