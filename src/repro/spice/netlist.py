"""Circuit container: nodes, elements and validity checks."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.errors import NetlistError
from repro.spice.elements.base import Element

#: The ground node name (SPICE convention).
GROUND = "0"


class Circuit:
    """A flat netlist of elements over named nodes.

    Node ``"0"`` is ground.  Element names must be unique; nodes are
    created implicitly when elements reference them.
    """

    def __init__(self, title: str = "circuit"):
        self.title = title
        self._elements: Dict[str, Element] = {}
        self._node_order: List[str] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, element: Element) -> Element:
        """Add an element (returns it, for chaining)."""
        if element.name in self._elements:
            raise NetlistError(f"duplicate element name {element.name!r}")
        for node in element.nodes:
            self._register_node(node)
        self._elements[element.name] = element
        return element

    def _register_node(self, node: str) -> None:
        if not isinstance(node, str) or not node:
            raise NetlistError(f"invalid node name {node!r}")
        if node != GROUND and node not in self._node_order:
            self._node_order.append(node)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[str]:
        """Non-ground nodes in registration order."""
        return list(self._node_order)

    @property
    def elements(self) -> List[Element]:
        """All elements in insertion order."""
        return list(self._elements.values())

    def element(self, name: str) -> Element:
        """Lookup an element by name."""
        try:
            return self._elements[name]
        except KeyError:
            raise NetlistError(f"no element named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._elements

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self._elements)

    # ------------------------------------------------------------------
    # indexing for MNA
    # ------------------------------------------------------------------
    def node_index(self) -> Dict[str, int]:
        """Map node name -> matrix row (ground excluded)."""
        return {node: i for i, node in enumerate(self._node_order)}

    def branch_index(self, start: Optional[int] = None) -> Dict[str, int]:
        """Map element name -> extra-unknown row, for branch elements."""
        offset = len(self._node_order) if start is None else start
        index: Dict[str, int] = {}
        for element in self._elements.values():
            if element.n_branch:
                index[element.name] = offset
                offset += element.n_branch
        return index

    @property
    def n_unknowns(self) -> int:
        """Total MNA unknowns (node voltages + branch currents)."""
        extra = sum(e.n_branch for e in self._elements.values())
        return len(self._node_order) + extra

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`NetlistError` for structurally bad circuits."""
        if not self._elements:
            raise NetlistError("circuit has no elements")
        touches_ground = any(GROUND in e.nodes for e in self._elements.values())
        if not touches_ground:
            raise NetlistError("no element connects to ground ('0')")
        # Every node must touch at least two element terminals, otherwise
        # its KCL row is a single dangling current.
        counts: Dict[str, int] = {}
        for element in self._elements.values():
            for node in element.nodes:
                counts[node] = counts.get(node, 0) + 1
        dangling = [n for n in self._node_order if counts.get(n, 0) < 2]
        if dangling:
            raise NetlistError(f"dangling nodes: {dangling}")

