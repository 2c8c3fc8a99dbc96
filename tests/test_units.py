"""Unit-conversion helpers."""

import pytest

from repro import units


def test_nm_value():
    assert units.nm(1.0) == pytest.approx(1e-9)


def test_per_cm3_conversion():
    # 1e19 cm^-3 (Table I doping) = 1e25 m^-3.
    assert units.per_cm3(1e19) == pytest.approx(1e25)
