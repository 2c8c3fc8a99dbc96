"""Cell netlist construction and parasitic insertion."""

import pytest

from repro.cells.library import get_cell
from repro.cells.netlist_builder import Parasitics, build_cell_circuit
from repro.cells.variants import DeviceVariant
from repro.spice import solve_dc
from repro.spice.elements.mosfet import Mosfet


@pytest.fixture(scope="module")
def inv_2d(model_set_2d):
    return build_cell_circuit(get_cell("INV1X1"), model_set_2d)


@pytest.fixture(scope="module")
def inv_2ch(model_set_2ch):
    return build_cell_circuit(get_cell("INV1X1"), model_set_2ch)


def test_transistor_count_matches_spec(inv_2d, model_set_2d):
    assert len(inv_2d.transistor_names) == 2
    nand3 = build_cell_circuit(get_cell("NAND3X1"), model_set_2d)
    assert len(nand3.transistor_names) == 6


def test_rail_resistances(inv_2d):
    assert inv_2d.circuit.element("Rvdd").resistance == pytest.approx(5.0)
    assert inv_2d.circuit.element("Rgnd").resistance == pytest.approx(5.0)


def test_output_miv_and_load(inv_2d):
    assert inv_2d.circuit.element("Rmivout_y").resistance == pytest.approx(7.0)
    assert inv_2d.circuit.element("Rout").resistance == pytest.approx(3.0)
    assert inv_2d.circuit.element("CL").capacitance == pytest.approx(1e-15)


def test_gate_routing_2d_has_interconnect_hop(inv_2d):
    # p-gate through the 7 Ohm MIV; n-gate through the 3 Ohm M1 wire.
    assert inv_2d.circuit.element("Rmiv_a").resistance == pytest.approx(7.0)
    assert inv_2d.circuit.element("Rint_a").resistance == pytest.approx(3.0)


def test_gate_routing_miv_variant_direct(inv_2ch):
    # The MIV is the gate: no M1 hop for the n-type device.
    assert "Rmiv_a" in inv_2ch.circuit
    assert "Rint_a" not in inv_2ch.circuit


def test_keepout_cap_only_in_2d(inv_2d, inv_2ch):
    assert "Ckoz_y" in inv_2d.circuit
    assert "Ckoz_y" not in inv_2ch.circuit


def test_validates_and_solves(inv_2d):
    inv_2d.circuit.validate()
    inv_2d.circuit.element("Va").waveform = 0.0
    op = solve_dc(inv_2d.circuit)
    assert op.voltage("out") == pytest.approx(1.0, abs=0.02)


def test_nand2_series_chain_has_internal_node(model_set_2d):
    netlist = build_cell_circuit(get_cell("NAND2X1"), model_set_2d)
    fets = [e for e in netlist.circuit if isinstance(e, Mosfet)]
    nmos = [f for f in fets if f.model.polarity.value == "n"]
    pmos = [f for f in fets if f.model.polarity.value == "p"]
    assert len(nmos) == 2 and len(pmos) == 2
    # the two NMOS share exactly one internal chain node
    nmos_nodes = [set((f.nodes[0], f.nodes[2])) for f in nmos]
    shared = nmos_nodes[0] & nmos_nodes[1]
    assert len(shared) == 1
    # PMOS are in parallel: both touch the output bottom node
    for fet in pmos:
        assert "y_b" in fet.nodes


def test_multi_stage_cell_wires_stage_output_to_next_gate(model_set_2d):
    netlist = build_cell_circuit(get_cell("AND2X1"), model_set_2d)
    circuit = netlist.circuit
    # intermediate signal yb drives the output inverter through its own
    # gate routing (MIV for the p side).
    assert "Rmiv_yb" in circuit
    assert "Rmivout_yb" in circuit


def test_input_sources_registered(inv_2d):
    assert inv_2d.input_sources == {"a": "Va"}


def test_custom_parasitics():
    from repro.cells.variants import extracted_model_set
    models = extracted_model_set(DeviceVariant.TWO_D)
    par = Parasitics(r_miv=14.0, r_interconnect=6.0, r_rail=10.0,
                     c_load=2e-15)
    netlist = build_cell_circuit(get_cell("INV1X1"), models, par)
    assert netlist.circuit.element("Rmiv_a").resistance == pytest.approx(14.0)
    assert netlist.circuit.element("CL").capacitance == pytest.approx(2e-15)


def test_mux_transistor_count(model_set_2d):
    netlist = build_cell_circuit(get_cell("MUX2X1"), model_set_2d)
    assert len(netlist.transistor_names) == 12


def test_all_cells_build_and_validate(model_set_2d):
    from repro.cells.library import all_cells
    for spec in all_cells():
        netlist = build_cell_circuit(spec, model_set_2d)
        netlist.circuit.validate()
        assert len(netlist.transistor_names) == spec.transistor_count
