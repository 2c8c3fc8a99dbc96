"""MIV geometry: sizes, keep-out, parasitics (Figure 1 / Section II)."""

import pytest

from repro.errors import LayoutError
from repro.geometry.miv import MivGeometry, MivRole
from repro.geometry.process import DEFAULT_PROCESS


def test_miv_side_is_25nm():
    miv = MivGeometry(DEFAULT_PROCESS)
    assert miv.side == pytest.approx(25e-9)


def test_outer_side_includes_liner():
    miv = MivGeometry(DEFAULT_PROCESS)
    assert miv.outer_side == pytest.approx(27e-9)


def test_external_contact_keepout_is_m1_spacing():
    miv = MivGeometry(DEFAULT_PROCESS, MivRole.EXTERNAL_CONTACT)
    assert miv.keepout_margin == pytest.approx(24e-9)
    assert miv.footprint_side == pytest.approx(75e-9)


def test_gate_transistor_has_no_keepout():
    miv = MivGeometry(DEFAULT_PROCESS, MivRole.GATE_TRANSISTOR)
    assert miv.keepout_margin == 0.0
    assert miv.footprint_side == pytest.approx(27e-9)


def test_internal_contact_free_area():
    miv = MivGeometry(DEFAULT_PROCESS, MivRole.INTERNAL_CONTACT)
    assert miv.footprint_area == 0.0


def test_external_footprint_area():
    miv = MivGeometry(DEFAULT_PROCESS, MivRole.EXTERNAL_CONTACT)
    assert miv.footprint_area == pytest.approx((75e-9) ** 2)


def test_keepout_dominates_miv_area():
    # The paper's core motivation: keep-out multiplies the MIV footprint.
    external = MivGeometry(DEFAULT_PROCESS, MivRole.EXTERNAL_CONTACT)
    gate = MivGeometry(DEFAULT_PROCESS, MivRole.GATE_TRANSISTOR)
    ratio = external.footprint_side ** 2 / gate.footprint_side ** 2
    assert ratio > 7


def test_footprint_rect_centred():
    miv = MivGeometry(DEFAULT_PROCESS, MivRole.GATE_TRANSISTOR)
    rect = miv.footprint_rect(0.0, 0.0)
    assert rect.x0 == pytest.approx(-miv.footprint_side / 2)
    assert rect.area == pytest.approx(miv.footprint_side ** 2)


def test_resistance_order_of_magnitude():
    # Across a ~200 nm tier span, a 25 nm Cu via is a few ohms — the
    # paper assumes 7 Ohm for cell simulation.
    miv = MivGeometry(DEFAULT_PROCESS)
    r = miv.resistance(250e-9)
    assert 1 < r < 20


def test_resistance_scales_with_span():
    miv = MivGeometry(DEFAULT_PROCESS)
    assert miv.resistance(200e-9) == pytest.approx(
        2 * miv.resistance(100e-9))


def test_resistance_rejects_bad_span():
    with pytest.raises(LayoutError):
        MivGeometry(DEFAULT_PROCESS).resistance(0.0)
