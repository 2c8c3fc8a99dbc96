"""Circuit container and validation."""

import pytest

from repro.errors import NetlistError
from repro.spice import Circuit, Resistor, dc_source
from repro.spice.elements.capacitor import Capacitor


def divider():
    c = Circuit("div")
    c.add(dc_source("V1", "in", "0", 1.0))
    c.add(Resistor("R1", "in", "mid", 1e3))
    c.add(Resistor("R2", "mid", "0", 1e3))
    return c


def test_nodes_in_registration_order():
    c = divider()
    assert c.nodes == ["in", "mid"]


def test_ground_not_a_node():
    assert "0" not in divider().nodes


def test_duplicate_element_rejected():
    c = divider()
    with pytest.raises(NetlistError):
        c.add(Resistor("R1", "a", "0", 1.0))


def test_element_lookup():
    c = divider()
    assert c.element("R1").resistance == 1e3
    with pytest.raises(NetlistError):
        c.element("R9")


def test_contains_and_len():
    c = divider()
    assert "V1" in c
    assert "X" not in c
    assert len(c) == 3


def test_unknowns_count_includes_branches():
    c = divider()
    # 2 nodes + 1 voltage-source branch current.
    assert c.n_unknowns == 3


def test_branch_index_after_nodes():
    c = divider()
    assert c.branch_index() == {"V1": 2}


def test_validate_ok():
    divider().validate()


def test_validate_empty():
    with pytest.raises(NetlistError):
        Circuit().validate()


def test_validate_no_ground():
    c = Circuit()
    c.add(Resistor("R1", "a", "b", 1.0))
    with pytest.raises(NetlistError):
        c.validate()


def test_validate_dangling_node():
    c = Circuit()
    c.add(dc_source("V1", "in", "0", 1.0))
    c.add(Resistor("R1", "in", "dangling", 1.0))
    with pytest.raises(NetlistError) as err:
        c.validate()
    assert "dangling" in str(err.value)


def test_bad_node_name_rejected():
    with pytest.raises(NetlistError):
        Circuit().add(Resistor("R1", "", "0", 1.0))


def test_element_validation():
    with pytest.raises(NetlistError):
        Resistor("R1", "a", "0", -5.0)
    with pytest.raises(NetlistError):
        Capacitor("C1", "a", "0", 0.0)
    with pytest.raises(NetlistError):
        Resistor("", "a", "0", 1.0)
