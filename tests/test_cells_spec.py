"""Series/parallel networks and cell specs."""

import pytest

from repro.cells.spec import CellSpec, GateStage, inp, parallel, series
from repro.errors import CellLibraryError


def test_input_leaf():
    leaf = inp("a")
    assert leaf.inputs() == ["a"]
    assert leaf.transistor_count() == 1
    assert leaf.conducts({"a": True})
    assert not leaf.conducts({"a": False})


def test_series_conduction_is_and():
    net = series(inp("a"), inp("b"))
    assert net.conducts({"a": True, "b": True})
    assert not net.conducts({"a": True, "b": False})


def test_parallel_conduction_is_or():
    net = parallel(inp("a"), inp("b"))
    assert net.conducts({"a": False, "b": True})
    assert not net.conducts({"a": False, "b": False})


def test_dual_swaps_series_parallel():
    net = series(inp("a"), parallel(inp("b"), inp("c")))
    dual = net.dual()
    assert dual.kind == "parallel"
    assert dual.children[1].kind == "series"
    # double dual is identity (structurally)
    assert dual.dual() == net


def test_transistor_count_nested():
    net = parallel(series(inp("a"), inp("b")), inp("c"))
    assert net.transistor_count() == 3


def test_inputs_deduplicated_in_order():
    net = parallel(series(inp("a"), inp("b")), series(inp("a"), inp("c")))
    assert net.inputs() == ["a", "b", "c"]


def test_missing_input_value_raises():
    with pytest.raises(CellLibraryError):
        inp("a").conducts({})


def test_network_validation():
    with pytest.raises(CellLibraryError):
        series(inp("a"))
    with pytest.raises(CellLibraryError):
        inp("")


def test_stage_is_inverting():
    stage = GateStage("y", inp("a"))
    assert stage.evaluate({"a": False}) is True
    assert stage.evaluate({"a": True}) is False
    assert stage.transistor_count == 2


def test_cell_spec_multi_stage_evaluation():
    cell = CellSpec(
        name="AND2", inputs=("a", "b"), output="y",
        stages=(GateStage("yb", series(inp("a"), inp("b"))),
                GateStage("y", inp("yb"))))
    assert cell.evaluate({"a": True, "b": True}) is True
    assert cell.evaluate({"a": True, "b": False}) is False
    assert cell.transistor_count == 6
    assert cell.nmos_count == 3


def test_cell_spec_validation():
    with pytest.raises(CellLibraryError):
        CellSpec(name="x", inputs=(), output="y",
                 stages=(GateStage("y", inp("a")),))
    with pytest.raises(CellLibraryError):
        CellSpec(name="x", inputs=("a",), output="z",
                 stages=(GateStage("y", inp("a")),))
    with pytest.raises(CellLibraryError):  # undefined signal
        CellSpec(name="x", inputs=("a",), output="y",
                 stages=(GateStage("y", inp("b")),))
    with pytest.raises(CellLibraryError):  # duplicate stage outputs
        CellSpec(name="x", inputs=("a",), output="y",
                 stages=(GateStage("y", inp("a")), GateStage("y", inp("a"))))


def test_cell_missing_input_raises():
    cell = CellSpec(name="inv", inputs=("a",), output="y",
                    stages=(GateStage("y", inp("a")),))
    with pytest.raises(CellLibraryError):
        cell.evaluate({})
