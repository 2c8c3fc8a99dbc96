"""Cell specifications: series/parallel networks and gate stages.

A static CMOS stage is fully described by its pull-down network (PDN)
over the stage inputs; the pull-up network is the series/parallel dual.
Compound cells chain stages through intermediate nets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import CellLibraryError


@dataclass(frozen=True)
class Network:
    """A series/parallel network over named inputs.

    ``kind`` is ``"input"`` (leaf), ``"series"`` or ``"parallel"``.
    """

    kind: str
    input_name: str = ""
    children: Tuple["Network", ...] = ()

    def __post_init__(self) -> None:
        if self.kind == "input":
            if not self.input_name:
                raise CellLibraryError("input leaf needs a name")
            if self.children:
                raise CellLibraryError("input leaf cannot have children")
        elif self.kind in ("series", "parallel"):
            if len(self.children) < 2:
                raise CellLibraryError(
                    f"{self.kind} network needs at least two children")
        else:
            raise CellLibraryError(f"unknown network kind {self.kind!r}")

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def dual(self) -> "Network":
        """Series <-> parallel dual (PDN -> PUN transformation)."""
        if self.kind == "input":
            return self
        swapped = "parallel" if self.kind == "series" else "series"
        return Network(swapped, children=tuple(c.dual() for c in self.children))

    def inputs(self) -> List[str]:
        """All referenced input names, in first-appearance order."""
        if self.kind == "input":
            return [self.input_name]
        seen: List[str] = []
        for child in self.children:
            for name in child.inputs():
                if name not in seen:
                    seen.append(name)
        return seen

    def transistor_count(self) -> int:
        """Number of transistors the network instantiates."""
        if self.kind == "input":
            return 1
        return sum(c.transistor_count() for c in self.children)

    # ------------------------------------------------------------------
    # logic
    # ------------------------------------------------------------------
    def conducts(self, values: Dict[str, bool]) -> bool:
        """Does the network conduct for the given input values?

        For a PDN built of NMOS devices, an input at logic 1 conducts.
        """
        if self.kind == "input":
            try:
                return values[self.input_name]
            except KeyError:
                raise CellLibraryError(
                    f"missing value for input {self.input_name!r}") from None
        if self.kind == "series":
            return all(c.conducts(values) for c in self.children)
        return any(c.conducts(values) for c in self.children)


def inp(name: str) -> Network:
    """Input leaf."""
    return Network("input", input_name=name)


def series(*children: Network) -> Network:
    """Series composition (AND of conduction)."""
    return Network("series", children=tuple(children))


def parallel(*children: Network) -> Network:
    """Parallel composition (OR of conduction)."""
    return Network("parallel", children=tuple(children))


@dataclass(frozen=True)
class GateStage:
    """One complementary CMOS stage: output = NOT(pdn conducts).

    Stage inputs may be cell inputs or outputs of earlier stages.
    """

    output: str
    pdn: Network

    def evaluate(self, values: Dict[str, bool]) -> bool:
        """Logic value of the stage output."""
        return not self.pdn.conducts(values)

    @property
    def transistor_count(self) -> int:
        """NMOS + PMOS transistors of the stage."""
        return 2 * self.pdn.transistor_count()


@dataclass(frozen=True)
class CellSpec:
    """A standard cell: ordered stages from cell inputs to one output."""

    name: str
    inputs: Tuple[str, ...]
    output: str
    stages: Tuple[GateStage, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.inputs:
            raise CellLibraryError(f"{self.name}: cell needs inputs")
        if not self.stages:
            raise CellLibraryError(f"{self.name}: cell needs stages")
        outputs = [stage.output for stage in self.stages]
        if len(set(outputs)) != len(outputs):
            raise CellLibraryError(f"{self.name}: duplicate stage outputs")
        if self.output != self.stages[-1].output:
            raise CellLibraryError(
                f"{self.name}: cell output must be the last stage's output")
        known = set(self.inputs)
        for stage in self.stages:
            for name in stage.pdn.inputs():
                if name not in known:
                    raise CellLibraryError(
                        f"{self.name}: stage {stage.output!r} uses undefined "
                        f"signal {name!r}")
            known.add(stage.output)

    # ------------------------------------------------------------------
    # logic evaluation
    # ------------------------------------------------------------------
    def evaluate(self, values: Dict[str, bool]) -> bool:
        """Evaluate the cell output for a full input assignment."""
        missing = [i for i in self.inputs if i not in values]
        if missing:
            raise CellLibraryError(f"{self.name}: missing inputs {missing}")
        state = dict(values)
        for stage in self.stages:
            state[stage.output] = stage.evaluate(state)
        return state[self.output]

    @property
    def transistor_count(self) -> int:
        """Total transistors over all stages."""
        return sum(stage.transistor_count for stage in self.stages)

    @property
    def nmos_count(self) -> int:
        """Total NMOS (= half the total, complementary stages)."""
        return self.transistor_count // 2
