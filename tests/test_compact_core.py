"""Compact-model building blocks: threshold, subthreshold, mobility,
current and capacitance submodules."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.compact import capacitance as cap_mod
from repro.compact import current as cur_mod
from repro.compact import mobility as mob_mod
from repro.compact.subthreshold import (
    effective_overdrive,
    ideality_factor,
    soft_plus,
)
from repro.compact.threshold import ThresholdModel

VT = 0.02569


# ---------------------------------------------------------------------------
# threshold
# ---------------------------------------------------------------------------
def test_long_channel_vth_is_vth0():
    model = ThresholdModel(l_gate=1e-6, t_si=7e-9, t_ox=1e-9)
    assert float(model.vth(0.4, 1.0, 0.8, 0.0, 0.0)) == pytest.approx(
        0.4, abs=1e-6)


def test_short_channel_rolloff_reduces_vth():
    model = ThresholdModel(l_gate=24e-9, t_si=7e-9, t_ox=1e-9)
    short = float(model.vth(0.4, 1.0, 0.8, 0.0, 0.0))
    assert short < 0.4


def test_dibl_term_linear_in_vds():
    model = ThresholdModel(l_gate=24e-9, t_si=7e-9, t_ox=1e-9)
    v0 = float(model.vth(0.4, 0.0, 1.0, 0.05, 0.0))
    v1 = float(model.vth(0.4, 0.0, 1.0, 0.05, 1.0))
    assert v0 - v1 == pytest.approx(0.05)


def test_dvt1_sharpens_rolloff():
    model = ThresholdModel(l_gate=24e-9, t_si=7e-9, t_ox=1e-9)
    weak = model.sce_shift(1.0, 2.0)
    strong = model.sce_shift(1.0, 0.5)
    assert strong > weak


def test_threshold_rejects_bad_geometry():
    with pytest.raises(ValueError):
        ThresholdModel(l_gate=0.0, t_si=7e-9, t_ox=1e-9)


# ---------------------------------------------------------------------------
# subthreshold / overdrive
# ---------------------------------------------------------------------------
def test_ideality_floor_is_one():
    assert float(ideality_factor(0.0, 0.0, 0.0345, 0.0)) == 1.0


def test_ideality_increases_with_cdsc():
    n = float(ideality_factor(0.00345, 0.0, 0.0345, 0.0))
    assert n == pytest.approx(1.1)


def test_cdscd_adds_drain_dependence():
    n0 = float(ideality_factor(0.0, 0.0345, 0.0345, 0.0))
    n1 = float(ideality_factor(0.0, 0.0345, 0.0345, 1.0))
    assert n1 == pytest.approx(n0 + 1.0)


def test_soft_plus_limits():
    assert float(soft_plus(np.array(10.0), 1.0)) == pytest.approx(10.0,
                                                                  abs=1e-4)
    assert float(soft_plus(np.array(-50.0), 1.0)) == pytest.approx(0.0,
                                                                   abs=1e-12)
    assert float(soft_plus(np.array(0.0), 1.0)) == pytest.approx(np.log(2))


def test_overdrive_strong_inversion_linear():
    vgst = float(effective_overdrive(1.0, 0.35, 1.0, VT))
    assert vgst == pytest.approx(0.65, abs=1e-3)


def test_overdrive_subthreshold_exponential():
    v1 = float(effective_overdrive(0.1, 0.35, 1.0, VT))
    v2 = float(effective_overdrive(0.1 + VT * np.log(10), 0.35, 1.0, VT))
    assert v2 / v1 == pytest.approx(10.0, rel=0.05)


def test_overdrive_never_exceeds_huge_argument():
    assert np.isfinite(float(effective_overdrive(100.0, 0.35, 1.0, VT)))


# ---------------------------------------------------------------------------
# mobility
# ---------------------------------------------------------------------------
def test_mobility_u0_limit():
    mu = float(mob_mod.effective_mobility(0.0, 1e-9, 0.045, 0.0, 0.0, 0.0,
                                          1.0, VT))
    assert mu == pytest.approx(0.045)


def test_mobility_ua_degradation():
    mu0 = float(mob_mod.effective_mobility(0.2, 1e-9, 0.045, 0.0, 0.0, 0.0,
                                           1.0, VT))
    mu1 = float(mob_mod.effective_mobility(0.8, 1e-9, 0.045, 2e-9, 0.0, 0.0,
                                           1.0, VT))
    assert mu1 < mu0


def test_mobility_monotone_in_overdrive():
    vgst = np.linspace(0.0, 1.0, 20)
    mu = mob_mod.effective_mobility(vgst, 1e-9, 0.045, 1.5e-9, 1e-18, 0.0,
                                    1.0, VT)
    assert np.all(np.diff(mu) < 0)


def test_coulomb_term_hits_low_overdrive():
    mu_low = float(mob_mod.effective_mobility(0.01, 1e-9, 0.045, 0.0, 0.0,
                                              1.0, 1.0, VT))
    mu_high = float(mob_mod.effective_mobility(0.8, 1e-9, 0.045, 0.0, 0.0,
                                               1.0, 1.0, VT))
    assert mu_low < mu_high


# ---------------------------------------------------------------------------
# current
# ---------------------------------------------------------------------------
def test_vdseff_below_vdsat():
    vdseff = cur_mod.effective_vds(np.array(0.1), np.array(0.5))
    assert float(vdseff) == pytest.approx(0.1, abs=0.01)


def test_vdseff_clamps_to_vdsat():
    vdseff = cur_mod.effective_vds(np.array(1.0), np.array(0.2))
    assert float(vdseff) == pytest.approx(0.2, abs=0.02)


def test_vdseff_takes_the_conjugate_form_only_below_the_switch():
    """|Vds| below 1e-12 V gets the conjugate form, exactly, beside
    ordinary points in the same array, which get the textbook form; the
    two differ there (the textbook form subtracts nearly equal
    numbers)."""
    vds = np.array([1e-13, 0.0, 0.05, 0.5])
    vdsat = np.array(0.3)
    got = cur_mod.effective_vds(vds, vdsat)
    delta = cur_mod.DELTA_VDSEFF
    diff = vdsat - vds - delta
    root = np.sqrt(diff * diff + 4.0 * delta * vdsat)
    conjugate = 2.0 * vdsat * vds / (vdsat + vds + delta + root)
    textbook = vdsat - 0.5 * (diff + root)
    assert got[0] == conjugate[0] and got[0] > 0.9e-13
    assert textbook[0] != conjugate[0]
    assert got[1] == 0.0
    assert list(got[2:]) == list(np.maximum(textbook[2:], 0.0))


def test_vdsat_subthreshold_floor():
    # Subthreshold (vgsteff ~ 0): vdsat -> esat_l * 2vt / (esat_l + 2vt),
    # the diffusion saturation voltage limited by velocity saturation.
    esat_l = 0.1
    vdsat = cur_mod.saturation_voltage(np.array(1e-6), np.array(esat_l), VT)
    expected = esat_l * 2 * VT / (esat_l + 2 * VT)
    assert float(vdsat) == pytest.approx(expected, rel=0.01)


def test_vdsat_strong_inversion_limit():
    # esat_l >> vgsteff: vdsat ~ vgsteff + 2vt (long-channel limit).
    vdsat = cur_mod.saturation_voltage(np.array(0.5), np.array(100.0), VT)
    assert float(vdsat) == pytest.approx(0.5 + 2 * VT, rel=0.01)


def test_drain_current_positive_and_monotone():
    vgst = np.array([0.1, 0.3, 0.5, 0.7])
    ids = cur_mod.drain_current(vgst, 1.0, 0.03, 0.0345, 192e-9, 24e-9,
                                9e4, 0.0, VT)
    assert np.all(ids > 0)
    assert np.all(np.diff(ids) > 0)


def test_drain_current_leakage_floor():
    ids = cur_mod.drain_current(np.array(0.0), np.array(1.0), 0.03, 0.0345,
                                192e-9, 24e-9, 9e4, 0.0, VT)
    assert float(ids) > 0


def test_clm_increases_with_vds():
    i1 = cur_mod.drain_current(np.array(0.6), np.array(0.6), 0.03, 0.0345,
                               192e-9, 24e-9, 9e4, 0.0, VT)
    i2 = cur_mod.drain_current(np.array(0.6), np.array(1.0), 0.03, 0.0345,
                               192e-9, 24e-9, 9e4, 0.0, VT)
    assert float(i2) > float(i1)


def test_pvag_raises_early_voltage():
    kwargs = dict(mu_eff=0.03, cox=0.0345, width=192e-9, length=24e-9,
                  vsat=9e4, vt=VT)
    flat = cur_mod.drain_current(np.array(0.6), np.array(1.0), pvag=10.0,
                                 **kwargs)
    steep = cur_mod.drain_current(np.array(0.6), np.array(1.0), pvag=0.0,
                                  **kwargs)
    assert float(flat) < float(steep)


# ---------------------------------------------------------------------------
# capacitance
# ---------------------------------------------------------------------------
def _cap_params(**overrides):
    defaults = dict(ckappa=0.6, delvt=0.0, cf=5e-11, cgso=5e-11, cgdo=5e-11,
                    moin=3.0, cgsl=1e-10, cgdl=1e-10)
    defaults.update(overrides)
    return SimpleNamespace(**defaults)


def _cgg(vg, params, vth, cox, w, l):
    """Cgg from the raw parameters through the capacitance preludes."""
    return cap_mod.gate_capacitance(
        vg, vth + params.delvt, cap_mod.transition_width(params.moin, VT),
        w * l * cox, w * (params.cgso + params.cgdo + params.cf),
        w * (params.cgsl + params.cgdl),
        cap_mod.turn_on_voltage(params.ckappa))


def test_cgg_limits():
    params = _cap_params()
    cox = 0.0345
    w, l = 192e-9, 24e-9
    low = float(_cgg(-0.5, params, 0.35, cox, w, l))
    high = float(_cgg(1.5, params, 0.35, cox, w, l))
    static = w * (params.cgso + params.cgdo + params.cf)
    assert low == pytest.approx(static, rel=0.05)
    assert high == pytest.approx(static + w * l * cox +
                                 w * (params.cgsl + params.cgdl), rel=0.05)


def test_cgg_monotone():
    params = _cap_params()
    vg = np.linspace(-0.5, 1.5, 41)
    c = _cgg(vg, params, 0.35, 0.0345, 192e-9, 24e-9)
    assert np.all(np.diff(c) >= -1e-20)


def test_delvt_shifts_transition():
    base = _cap_params()
    shifted = _cap_params(delvt=0.2)
    c_base = float(_cgg(0.35, base, 0.35, 0.0345, 192e-9, 24e-9))
    c_shift = float(_cgg(0.35, shifted, 0.35, 0.0345, 192e-9, 24e-9))
    assert c_shift < c_base


def test_moin_widens_transition():
    narrow = _cap_params(moin=1.0)
    wide = _cap_params(moin=10.0)
    # far below threshold, the wide transition already shows some rise
    below = 0.1
    c_narrow = float(_cgg(below, narrow, 0.35, 0.0345, 192e-9, 24e-9))
    c_wide = float(_cgg(below, wide, 0.35, 0.0345, 192e-9, 24e-9))
    assert c_wide > c_narrow


def test_intrinsic_charge_is_antiderivative():
    """dQ/dV must equal the intrinsic capacitance term (consistency)."""
    params = _cap_params()
    cox, w, l = 0.0345, 192e-9, 24e-9
    v = 0.5
    dv = 1e-5
    width = cap_mod.transition_width(params.moin, VT)
    centre = 0.35 + params.delvt
    q1 = float(cap_mod.intrinsic_channel_charge(v + dv, centre, width,
                                                w * l * cox))
    q0 = float(cap_mod.intrinsic_channel_charge(v - dv, centre, width,
                                                w * l * cox))
    c_expected = w * l * cox * float(cap_mod.inversion_transition(
        v, centre, width))
    assert (q1 - q0) / (2 * dv) == pytest.approx(c_expected, rel=1e-3)


def test_fringe_charge_derivative_matches_turn_on():
    params = _cap_params()
    w = 192e-9
    v, dv = 0.3, 1e-5
    turn_on = cap_mod.turn_on_voltage(params.ckappa)
    q1 = float(cap_mod.fringe_charge(v + dv, w * params.cgsl, turn_on))
    q0 = float(cap_mod.fringe_charge(v - dv, w * params.cgsl, turn_on))
    c_expected = w * params.cgsl * float(cap_mod.fringe_turn_on(
        v, turn_on))
    assert (q1 - q0) / (2 * dv) == pytest.approx(c_expected, rel=1e-3)
