"""Sensitization analysis used by the stimulus planner."""

import pytest

from repro.cells.library import get_cell
from repro.cells.logic import (
    first_sensitizing_assignment,
    sensitizing_assignments,
)
from repro.errors import CellLibraryError


def test_nand2_sensitization():
    cell = get_cell("NAND2X1")
    options = sensitizing_assignments(cell, "a")
    assert options == [{"b": True}]


def test_nor2_sensitization():
    cell = get_cell("NOR2X1")
    assert sensitizing_assignments(cell, "a") == [{"b": False}]


def test_inverter_always_sensitized():
    cell = get_cell("INV1X1")
    assert sensitizing_assignments(cell, "a") == [{}]


def test_xor_sensitized_under_all_assignments():
    cell = get_cell("XOR2X1")
    options = sensitizing_assignments(cell, "a")
    assert len(options) == 2  # b = 0 and b = 1 both toggle the output


def test_mux_select_needs_different_data():
    cell = get_cell("MUX2X1")
    options = sensitizing_assignments(cell, "s")
    for assignment in options:
        assert assignment["a"] != assignment["b"]


def test_mux_data_input_needs_selection():
    cell = get_cell("MUX2X1")
    for assignment in sensitizing_assignments(cell, "a"):
        assert assignment["s"] is True


def test_first_assignment_deterministic():
    cell = get_cell("NAND3X1")
    assert first_sensitizing_assignment(cell, "a") == {"b": True, "c": True}


def test_unknown_input_raises():
    with pytest.raises(CellLibraryError):
        sensitizing_assignments(get_cell("INV1X1"), "z")


def test_aoi_sensitization_of_c():
    cell = get_cell("AOI2X1")
    # c toggles output whenever (a and b) is false.
    options = sensitizing_assignments(cell, "c")
    assert {"a": False, "b": False} in options
    assert {"a": True, "b": True} not in options
