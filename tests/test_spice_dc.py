"""DC operating point."""

import pytest

from repro.spice import (
    Circuit,
    CurrentSource,
    Mosfet,
    Resistor,
    dc_source,
    solve_dc,
)


def test_voltage_divider_exact():
    c = Circuit()
    c.add(dc_source("V1", "in", "0", 2.0))
    c.add(Resistor("R1", "in", "mid", 3e3))
    c.add(Resistor("R2", "mid", "0", 1e3))
    op = solve_dc(c)
    assert op.voltage("mid") == pytest.approx(0.5, rel=1e-6)
    assert op.voltage("in") == pytest.approx(2.0)
    assert op.voltage("0") == 0.0


def test_source_current_is_negative_when_sourcing():
    c = Circuit()
    c.add(dc_source("V1", "in", "0", 1.0))
    c.add(Resistor("R1", "in", "0", 1e3))
    op = solve_dc(c)
    # MNA branch current flows into the + terminal: -1 mA here.
    assert op.current("V1") == pytest.approx(-1e-3, rel=1e-6)


def test_current_source_into_resistor():
    c = Circuit()
    c.add(CurrentSource("I1", "0", "out", 1e-3))
    c.add(Resistor("R1", "out", "0", 2e3))
    op = solve_dc(c)
    assert op.voltage("out") == pytest.approx(2.0, rel=1e-6)


def test_two_sources_superposition():
    c = Circuit()
    c.add(dc_source("V1", "a", "0", 1.0))
    c.add(dc_source("V2", "b", "0", 2.0))
    c.add(Resistor("R1", "a", "mid", 1e3))
    c.add(Resistor("R2", "b", "mid", 1e3))
    c.add(Resistor("R3", "mid", "0", 1e3))
    op = solve_dc(c)
    assert op.voltage("mid") == pytest.approx(1.0, rel=1e-6)


def test_inverter_dc_rails(model_set_2d):
    c = Circuit()
    c.add(dc_source("VDD", "vdd", "0", 1.0))
    c.add(dc_source("VIN", "in", "0", 0.0))
    c.add(Mosfet("MP", "out", "in", "vdd", model_set_2d.pmos))
    c.add(Mosfet("MN", "out", "in", "0", model_set_2d.nmos))
    c.add(Resistor("RL", "out", "0", 1e9))
    op = solve_dc(c)
    assert op.voltage("out") == pytest.approx(1.0, abs=0.02)

    c.element("VIN").waveform = 1.0
    op = solve_dc(c)
    assert op.voltage("out") == pytest.approx(0.0, abs=0.02)
