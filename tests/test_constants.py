"""Physical-constants sanity."""

import pytest

from repro import constants


def test_thermal_voltage_at_room_temperature():
    assert constants.thermal_voltage(300.0) == pytest.approx(0.02585, rel=1e-3)


def test_thermal_voltage_at_tnom():
    # TNOM = 25 C = 298.15 K (Table II).
    assert constants.thermal_voltage() == pytest.approx(0.025693, rel=1e-3)


def test_thermal_voltage_scales_linearly():
    assert constants.thermal_voltage(600.0) == pytest.approx(
        2.0 * constants.thermal_voltage(300.0))


def test_thermal_voltage_rejects_nonpositive_temperature():
    with pytest.raises(ValueError):
        constants.thermal_voltage(0.0)
    with pytest.raises(ValueError):
        constants.thermal_voltage(-10.0)


def test_fundamental_constants_values():
    assert constants.Q == pytest.approx(1.602e-19, rel=1e-3)
    assert constants.K_B == pytest.approx(1.381e-23, rel=1e-3)
    assert constants.EPS_0 == pytest.approx(8.854e-12, rel=1e-3)
