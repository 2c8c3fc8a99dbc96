"""Element interface: stamp plans fixed per circuit, values per assembly.

:meth:`Element.stamp_plan` gives, once per circuit, the integer
positions of an element's entries in the MNA system (a
:class:`StampPlan`), ground rows and columns dropped.  The assembler
turns the plans into flat indices and writes each assembly's values
through them with one scatter (:mod:`repro.spice.mna`).

Every element but the MOSFET is linear: its :meth:`Element.matrix_values`
and a capacitor's capacitance are read once per batch, a source's
:meth:`Element.rhs_values` once per ``(time, scale)``.  All MOSFETs are
evaluated together, once per assembly, and their values laid out by
:meth:`~repro.spice.elements.mosfet.Mosfet.stamp_static` /
``stamp_dynamic``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple

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

    def matrix_values(self) -> Sequence[float]:
        """The values matrix ``k`` indexes (constant: the element is
        linear)."""
        return ()

    def rhs_values(self, time: float, scale: float) -> Sequence[float]:
        """The values rhs ``k`` indexes at ``time``; ``scale``
        multiplies every independent source (source continuation)."""
        return ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} {self.nodes}>"
