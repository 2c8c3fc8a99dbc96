"""Standard-cell library: the paper's 14 cells in four implementations.

Cells are declared as series/parallel pull-down networks (the pull-up is
derived as the dual), composed into stages for the compound cells
(AND/OR/XOR/MUX).  The netlist builder instantiates them with the
extracted compact models and the paper's parasitic assumptions: MIV 7 Ohm,
interconnect 3 Ohm, supply rails 5 Ohm, 1 fF output load.
"""

from repro.cells.spec import (
    CellSpec,
    GateStage,
    Network,
    inp,
    parallel,
    series,
)
from repro.cells.library import CELL_NAMES, all_cells, get_cell
from repro.cells.variants import DeviceVariant, ModelSet, extracted_model_set
from repro.cells.netlist_builder import CellNetlist, Parasitics, build_cell_circuit
from repro.cells.logic import sensitizing_assignments
from repro.cells.vectors import StimulusPlan, stimulus_plan_for

__all__ = [
    "Network",
    "inp",
    "series",
    "parallel",
    "GateStage",
    "CellSpec",
    "CELL_NAMES",
    "get_cell",
    "all_cells",
    "DeviceVariant",
    "ModelSet",
    "extracted_model_set",
    "Parasitics",
    "CellNetlist",
    "build_cell_circuit",
    "sensitizing_assignments",
    "StimulusPlan",
    "stimulus_plan_for",
]
