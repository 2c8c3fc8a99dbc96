"""Table I process parameters."""

import pytest

from repro.errors import ReproError
from repro.geometry.process import DEFAULT_PROCESS, ProcessParameters


def test_table1_nominal_values():
    t1 = DEFAULT_PROCESS.as_table1()
    assert t1["t_Si [nm]"] == pytest.approx(7)
    assert t1["h_src [nm]"] == pytest.approx(7)
    assert t1["t_ox [nm]"] == pytest.approx(1)
    assert t1["n_src [cm^-3]"] == pytest.approx(1e19)
    assert t1["t_spacer [nm]"] == pytest.approx(10)
    assert t1["t_BOX [nm]"] == pytest.approx(100)
    assert t1["t_miv [nm]"] == pytest.approx(25)
    assert t1["l_src [nm]"] == pytest.approx(48)
    assert t1["w_src [nm]"] == pytest.approx(192)
    assert t1["L_G [nm]"] == pytest.approx(24)


def test_si_units_internally():
    assert DEFAULT_PROCESS.t_si == pytest.approx(7e-9)
    assert DEFAULT_PROCESS.n_src == pytest.approx(1e25)


def test_with_updates_returns_new_object():
    thicker = DEFAULT_PROCESS.with_updates(t_si=10e-9)
    assert thicker.t_si == pytest.approx(10e-9)
    assert DEFAULT_PROCESS.t_si == pytest.approx(7e-9)
    assert thicker.t_box == DEFAULT_PROCESS.t_box


def test_nonpositive_parameter_rejected():
    with pytest.raises(ReproError):
        ProcessParameters(t_si=0.0)
    with pytest.raises(ReproError):
        DEFAULT_PROCESS.with_updates(l_gate=-1e-9)


def test_supply_and_temperature_defaults():
    assert DEFAULT_PROCESS.vdd == pytest.approx(1.0)
    assert DEFAULT_PROCESS.temperature == pytest.approx(298.15)


def test_frozen():
    with pytest.raises(AttributeError):
        DEFAULT_PROCESS.t_si = 1e-9  # type: ignore[misc]
