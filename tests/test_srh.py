"""SRH recombination model."""

import pytest

from repro.constants import Q
from repro.tcad.srh import SrhParameters, generation_leakage

NI = 1e16


def test_generation_leakage_scales_with_volume():
    params = SrhParameters()
    i1 = generation_leakage(1e-24, NI, params)
    i2 = generation_leakage(2e-24, NI, params)
    assert i2 == pytest.approx(2 * i1)
    assert i1 == pytest.approx(Q * NI / (params.tau_n + params.tau_p) * 1e-24)


def test_leakage_magnitude_is_small():
    # Device-scale volume gives a deeply sub-pA floor.
    params = SrhParameters()
    volume = 192e-9 * 24e-9 * 7e-9
    assert generation_leakage(volume, NI, params) < 1e-12


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        SrhParameters(tau_n=0.0)
    with pytest.raises(ValueError):
        SrhParameters(n1=-1.0)
    with pytest.raises(ValueError):
        generation_leakage(-1.0, NI, SrhParameters())
