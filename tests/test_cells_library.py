"""The 14-cell library: membership and full truth-table verification."""

import itertools

import pytest

from repro.cells.library import CELL_NAMES, all_cells, get_cell
from repro.errors import CellLibraryError

#: Reference logic functions (positional args in cell input order).
REFERENCE = {
    "INV1X1": lambda a: not a,
    "NAND2X1": lambda a, b: not (a and b),
    "NAND3X1": lambda a, b, c: not (a and b and c),
    "NOR2X1": lambda a, b: not (a or b),
    "NOR3X1": lambda a, b, c: not (a or b or c),
    "AND2X1": lambda a, b: a and b,
    "AND3X1": lambda a, b, c: a and b and c,
    "OR2X1": lambda a, b: a or b,
    "OR3X1": lambda a, b, c: a or b or c,
    "AOI2X1": lambda a, b, c: not ((a and b) or c),
    "OAI2X1": lambda a, b, c: not ((a or b) and c),
    "XOR2X1": lambda a, b: a != b,
    "XNOR2X1": lambda a, b: a == b,
    "MUX2X1": lambda a, b, s: a if s else b,
}


def test_paper_cell_list():
    assert CELL_NAMES == (
        "AND2X1", "AND3X1", "AOI2X1", "INV1X1", "MUX2X1", "NAND2X1",
        "NAND3X1", "NOR2X1", "NOR3X1", "OAI2X1", "OR2X1", "OR3X1",
        "XNOR2X1", "XOR2X1")


def test_fourteen_cells():
    assert len(all_cells()) == 14


def test_unknown_cell_raises():
    with pytest.raises(CellLibraryError):
        get_cell("NAND4X1")


@pytest.mark.parametrize("name", CELL_NAMES)
def test_truth_table_matches_reference(name):
    cell = get_cell(name)
    reference = REFERENCE[name]
    for bits in itertools.product((False, True), repeat=len(cell.inputs)):
        expected = bool(reference(*bits))
        measured = cell.evaluate(dict(zip(cell.inputs, bits)))
        assert measured == expected, f"{name}{bits}"


def truth_table(spec):
    """All (input assignment, output) rows in binary counting order."""
    return [(bits, spec.evaluate(dict(zip(spec.inputs, bits))))
            for bits in itertools.product((False, True),
                                          repeat=len(spec.inputs))]


@pytest.mark.parametrize("name", CELL_NAMES)
def test_truth_table_helper_consistent(name):
    cell = get_cell(name)
    rows = truth_table(cell)
    assert len(rows) == 2 ** len(cell.inputs)
    for bits, value in rows:
        assert cell.evaluate(dict(zip(cell.inputs, bits))) == value


def test_transistor_counts():
    assert get_cell("INV1X1").transistor_count == 2
    assert get_cell("NAND2X1").transistor_count == 4
    assert get_cell("NAND3X1").transistor_count == 6
    assert get_cell("AND2X1").transistor_count == 6
    assert get_cell("AOI2X1").transistor_count == 6
    assert get_cell("XOR2X1").transistor_count == 12
    assert get_cell("MUX2X1").transistor_count == 12


def test_every_cell_output_is_y():
    for cell in all_cells():
        assert cell.output == "y"


def test_complementary_counts():
    for cell in all_cells():
        assert cell.transistor_count == 2 * cell.nmos_count
