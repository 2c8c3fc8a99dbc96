"""Material library and record types."""

import pytest

from repro.constants import EPS_0
from repro.errors import MaterialError
from repro.materials import (
    COPPER,
    SILICON,
    SILICON_DIOXIDE,
    SILICON_NITRIDE,
    Conductor,
    Insulator,
    Semiconductor,
)


def test_silicon_permittivity():
    assert SILICON.permittivity == pytest.approx(11.7 * EPS_0)


def test_oxide_permittivity():
    assert SILICON_DIOXIDE.eps_r == pytest.approx(3.9)


def test_nitride_higher_k_than_oxide():
    assert SILICON_NITRIDE.eps_r > SILICON_DIOXIDE.eps_r


def test_silicon_intrinsic_density_reasonable():
    ni = SILICON.intrinsic_density(300.0)
    assert 3e15 < ni < 3e16


def test_copper_wire_resistance():
    # 1 um long, 24 nm x 48 nm cross-section.
    r = COPPER.wire_resistance(1e-6, 24e-9, 48e-9)
    assert r == pytest.approx(COPPER.resistivity * 1e-6 / (24e-9 * 48e-9))
    assert 5 < r < 30


def test_wire_resistance_rejects_degenerate_geometry():
    with pytest.raises(MaterialError):
        COPPER.wire_resistance(0.0, 1e-9, 1e-9)


def test_invalid_permittivity_rejected():
    with pytest.raises(MaterialError):
        Insulator(name="bad", eps_r=-1.0)


def test_invalid_semiconductor_rejected():
    with pytest.raises(MaterialError):
        Semiconductor(name="bad", eps_r=11.7, bandgap=-1.0)


def test_invalid_conductor_rejected():
    with pytest.raises(MaterialError):
        Conductor(name="bad", eps_r=1.0, resistivity=0.0)
