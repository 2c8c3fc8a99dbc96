"""Device designs: variant physics enters here."""

import pytest

from repro.geometry.transistor_layout import ChannelCount
from repro.tcad.device import Polarity, design_for_variant


@pytest.fixture(scope="module")
def devices():
    return {v: design_for_variant(v, Polarity.NMOS) for v in ChannelCount}


def test_polarity_signs():
    assert Polarity.NMOS.sign == 1
    assert Polarity.PMOS.sign == -1


def test_all_variants_same_electrical_width(devices):
    for device in devices.values():
        assert device.width == pytest.approx(192e-9)
        assert device.l_gate == pytest.approx(24e-9)


def test_nmos_current_sign(devices):
    dev = devices[ChannelCount.TRADITIONAL]
    assert dev.ids(1.0, 1.0) > 0


def test_pmos_current_sign():
    dev = design_for_variant(ChannelCount.TRADITIONAL, Polarity.PMOS)
    assert dev.ids(-1.0, -1.0) < 0


def test_pmos_mirrors_nmos_shape():
    pdev = design_for_variant(ChannelCount.TRADITIONAL, Polarity.PMOS)
    assert pdev.ids_magnitude(1.0, 1.0) == pytest.approx(
        abs(pdev.ids(-1.0, -1.0)), rel=1e-9)


def test_pmos_weaker_than_nmos(devices):
    ndev = devices[ChannelCount.TRADITIONAL]
    pdev = design_for_variant(ChannelCount.TRADITIONAL, Polarity.PMOS)
    assert pdev.ids_magnitude(1.0, 1.0) < ndev.ids_magnitude(1.0, 1.0)


def test_variant_drive_ordering(devices):
    """The calibrated TCAD drive ordering the PPA trends rest on:
    1-ch and 2-ch slightly stronger than traditional, 4-ch weaker."""
    base = devices[ChannelCount.TRADITIONAL].ids_magnitude(1.0, 1.0)
    one = devices[ChannelCount.ONE].ids_magnitude(1.0, 1.0) / base
    two = devices[ChannelCount.TWO].ids_magnitude(1.0, 1.0) / base
    four = devices[ChannelCount.FOUR].ids_magnitude(1.0, 1.0) / base
    assert 1.02 < one < 1.12
    assert 1.02 < two < 1.12
    assert 0.85 < four < 0.99


def test_only_four_channel_stretches_length(devices):
    for variant, device in devices.items():
        if variant is ChannelCount.FOUR:
            assert device.engine.l_eff_factor > 1.0
        else:
            assert device.engine.l_eff_factor == 1.0


def test_miv_variants_have_lower_flatband(devices):
    base_fb = devices[ChannelCount.TRADITIONAL].engine.poisson.stack.flatband
    for variant in (ChannelCount.ONE, ChannelCount.TWO, ChannelCount.FOUR):
        assert devices[variant].engine.poisson.stack.flatband < base_fb


def test_narrow_channels_have_lower_mobility(devices):
    mu = {v: d.engine.mobility.mu_low for v, d in devices.items()}
    assert mu[ChannelCount.FOUR] < mu[ChannelCount.TWO] < \
        mu[ChannelCount.ONE] == mu[ChannelCount.TRADITIONAL]


def test_gate_capacitance_positive_and_ordered(devices):
    for device in devices.values():
        assert device.gate_capacitance(1.0) > device.gate_capacitance(0.0) > 0


def test_four_channel_extra_sd_resistance(devices):
    assert (devices[ChannelCount.FOUR].sd_resistance >
            devices[ChannelCount.TRADITIONAL].sd_resistance)


def test_miv_fringe_cap_scales_with_faces(devices):
    c1 = devices[ChannelCount.ONE].miv_fringe_cap
    c2 = devices[ChannelCount.TWO].miv_fringe_cap
    c4 = devices[ChannelCount.FOUR].miv_fringe_cap
    assert devices[ChannelCount.TRADITIONAL].miv_fringe_cap == 0.0
    assert c2 == pytest.approx(2 * c1)
    assert c4 == pytest.approx(4 * c1)
