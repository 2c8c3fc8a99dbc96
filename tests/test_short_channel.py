"""Characteristic-length short-channel model."""

import math

import pytest

from repro.tcad.short_channel import ShortChannelModel


@pytest.fixture(scope="module")
def model():
    return ShortChannelModel(t_si=7e-9, t_ox=1e-9)


def test_natural_length_value(model):
    # sqrt(eps_si/eps_ox * t_si * t_ox) = sqrt(3 * 7) nm ~ 4.58 nm.
    assert model.natural_length == pytest.approx(4.58e-9, rel=0.01)


def test_decay_at_paper_gate_length(model):
    decay = model.decay(24e-9)
    assert decay == pytest.approx(math.exp(-24 / (2 * 4.58)), rel=0.02)
    assert 0.05 < decay < 0.12


def test_dibl_decreases_with_length(model):
    assert model.dibl(48e-9) < model.dibl(24e-9) < model.dibl(12e-9)


def test_dibl_magnitude_reasonable(model):
    # tens of mV/V at L = 24 nm for this film/oxide.
    sigma = model.dibl(24e-9)
    assert 0.01 < sigma < 0.1


def test_vth_rolloff_positive_and_small(model):
    rolloff = model.vth_rolloff(24e-9)
    assert 0.0 < rolloff < 0.05


def test_long_channel_limit(model):
    assert model.dibl(1e-6) == pytest.approx(0.0, abs=1e-12)


def test_bad_geometry_rejected():
    with pytest.raises(ValueError):
        ShortChannelModel(t_si=0.0, t_ox=1e-9)
    with pytest.raises(ValueError):
        ShortChannelModel(t_si=7e-9, t_ox=1e-9).decay(0.0)


def test_thinner_film_improves_control():
    thin = ShortChannelModel(t_si=5e-9, t_ox=1e-9)
    thick = ShortChannelModel(t_si=10e-9, t_ox=1e-9)
    assert thin.dibl(24e-9) < thick.dibl(24e-9)
