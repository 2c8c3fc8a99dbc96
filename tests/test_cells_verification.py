"""SPICE-level truth-table verification of the whole library.

The logic oracle (:mod:`repro.cells.logic`) says what a cell *should*
compute; the checker below proves the generated transistor netlist
actually computes it: every input combination is applied as DC levels,
the circuit is solved, and the output is compared against the oracle
with noise-margin thresholds.  A systematic netlisting bug (swapped
PUN/PDN, missing dual, bad series chain) is caught here long before PPA
numbers would look subtly wrong.
"""

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import pytest

from repro.cells.library import CELL_NAMES, all_cells, get_cell
from repro.cells.netlist_builder import CellNetlist, Parasitics, build_cell_circuit
from repro.cells.spec import CellSpec
from repro.cells.variants import DeviceVariant, ModelSet, extracted_model_set
from repro.errors import CellLibraryError
from repro.spice.dcop import solve_dc

#: Output must exceed this fraction of VDD to read as logic 1.
HIGH_THRESHOLD = 0.9

#: Output must stay below this fraction of VDD to read as logic 0.
LOW_THRESHOLD = 0.1


@dataclass
class RowCheck:
    """One truth-table row: applied inputs, expected and measured."""

    inputs: Tuple[bool, ...]
    expected: bool
    measured_voltage: float
    vdd: float

    @property
    def measured_level(self) -> Optional[bool]:
        """Logic reading of the output, None if in the forbidden band."""
        if self.measured_voltage >= HIGH_THRESHOLD * self.vdd:
            return True
        if self.measured_voltage <= LOW_THRESHOLD * self.vdd:
            return False
        return None

    @property
    def passed(self) -> bool:
        """Row verdict."""
        return self.measured_level is not None and \
            self.measured_level == self.expected


@dataclass
class VerificationReport:
    """All rows of one cell implementation."""

    cell_name: str
    variant: DeviceVariant
    rows: List[RowCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Cell verdict."""
        return bool(self.rows) and all(row.passed for row in self.rows)

    @property
    def failures(self) -> List[RowCheck]:
        """The failing rows (for diagnostics)."""
        return [row for row in self.rows if not row.passed]

    def worst_high(self) -> float:
        """Lowest voltage produced for a logic-1 output [V]."""
        highs = [r.measured_voltage for r in self.rows if r.expected]
        if not highs:
            raise CellLibraryError(f"{self.cell_name}: no high outputs")
        return min(highs)

    def worst_low(self) -> float:
        """Highest voltage produced for a logic-0 output [V]."""
        lows = [r.measured_voltage for r in self.rows if not r.expected]
        if not lows:
            raise CellLibraryError(f"{self.cell_name}: no low outputs")
        return max(lows)


def verify_cell(spec: CellSpec, models: ModelSet,
                parasitics: Parasitics = Parasitics(),
                ) -> VerificationReport:
    """DC-verify one cell implementation against its logic oracle."""
    netlist = build_cell_circuit(spec, models, parasitics)
    report = VerificationReport(cell_name=spec.name,
                                variant=models.variant)
    vdd = netlist.vdd
    x_prev = None
    for bits in itertools.product((False, True), repeat=len(spec.inputs)):
        _apply_levels(netlist, dict(zip(spec.inputs, bits)))
        op = solve_dc(netlist.circuit, x0=x_prev)
        x_prev = op.x
        report.rows.append(RowCheck(
            inputs=bits,
            expected=spec.evaluate(dict(zip(spec.inputs, bits))),
            measured_voltage=op.voltage(netlist.output_node),
            vdd=vdd,
        ))
    return report


def _apply_levels(netlist: CellNetlist, levels: Dict[str, bool]) -> None:
    for input_name, source_name in netlist.input_sources.items():
        source = netlist.circuit.element(source_name)
        source.waveform = netlist.vdd if levels[input_name] else 0.0


def verify_library(variant: DeviceVariant,
                   cells: Optional[List[CellSpec]] = None,
                   ) -> Dict[str, VerificationReport]:
    """Verify every (requested) cell of the library in one variant."""
    models = extracted_model_set(variant)
    reports = {}
    for spec in (cells if cells is not None else all_cells()):
        reports[spec.name] = verify_cell(spec, models)
    return reports


@pytest.mark.parametrize("name", CELL_NAMES)
def test_cell_truth_table_in_spice_2d(name, model_set_2d):
    """Every cell's transistor netlist computes its boolean function."""
    report = verify_cell(get_cell(name), model_set_2d)
    assert report.passed, [
        (row.inputs, row.expected, row.measured_voltage)
        for row in report.failures]
    assert len(report.rows) == 2 ** len(get_cell(name).inputs)


@pytest.mark.parametrize("name", ["INV1X1", "NAND3X1", "XOR2X1", "MUX2X1"])
def test_cell_truth_table_in_spice_2ch(name, model_set_2ch):
    """Spot-check the MIV-transistor implementation too."""
    report = verify_cell(get_cell(name), model_set_2ch)
    assert report.passed


@pytest.mark.slow
@pytest.mark.parametrize("variant", [DeviceVariant.MIV_1CH,
                                     DeviceVariant.MIV_2CH,
                                     DeviceVariant.MIV_4CH],
                         ids=lambda v: v.value)
@pytest.mark.parametrize("name", CELL_NAMES)
def test_cell_truth_table_full_matrix(name, variant, model_sets):
    """The complete 14 cells x 4 variants functional matrix.

    The 2-D column runs unmarked above; the three MIV columns ride
    behind ``slow``.  Every implementation must realise its oracle
    with full noise margins — a variant-specific netlisting bug
    (e.g. a MIV stacking error on one polarity) fails exactly one
    column of this matrix, which is the diagnostic we want.
    """
    spec = get_cell(name)
    report = verify_cell(spec, model_sets(variant))
    assert report.passed, [
        (row.inputs, row.expected, row.measured_voltage)
        for row in report.failures]
    assert len(report.rows) == 2 ** len(spec.inputs)
    assert report.variant is variant


def test_noise_margins_are_healthy(model_set_2d):
    """Static CMOS at 1 fA-scale leakage: rails within a few mV."""
    report = verify_cell(get_cell("NAND2X1"), model_set_2d)
    assert report.worst_high() > 0.98
    assert report.worst_low() < 0.02


def test_report_metadata(model_set_2d):
    report = verify_cell(get_cell("INV1X1"), model_set_2d)
    assert report.cell_name == "INV1X1"
    assert report.variant is DeviceVariant.TWO_D
    assert report.rows[0].inputs == (False,)
    assert report.rows[0].expected is True


def test_verify_library_subset(model_set_2d):
    reports = verify_library(DeviceVariant.TWO_D,
                             cells=[get_cell("INV1X1"),
                                    get_cell("NOR2X1")])
    assert set(reports) == {"INV1X1", "NOR2X1"}
    assert all(r.passed for r in reports.values())


def test_thresholds_sane():
    assert 0.0 < LOW_THRESHOLD < HIGH_THRESHOLD < 1.0
