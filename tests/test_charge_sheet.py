"""Charge-sheet transport model behaviour."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.tcad.charge_sheet import ChargeSheetModel
from repro.tcad.poisson1d import Poisson1D, StackSpec
from repro.tcad.short_channel import ShortChannelModel
from repro.tcad.velocity import ELECTRON_MOBILITY


@pytest.fixture(scope="module")
def engine():
    poisson = Poisson1D(StackSpec(t_ox=1e-9, t_si=7e-9, t_box=100e-9,
                                  flatband=0.04))
    return ChargeSheetModel(
        poisson=poisson,
        mobility=ELECTRON_MOBILITY,
        short_channel=ShortChannelModel(t_si=7e-9, t_ox=1e-9),
        width=192e-9,
        l_gate=24e-9,
    )


def test_zero_vds_zero_current(engine):
    assert engine.drain_current(0.8, 0.0) == 0.0


def test_current_increases_with_vgs(engine):
    currents = [engine.drain_current(v, 1.0) for v in (0.4, 0.6, 0.8, 1.0)]
    assert all(i2 > i1 for i1, i2 in zip(currents, currents[1:]))


def test_current_increases_with_vds(engine):
    currents = [engine.drain_current(0.8, v) for v in (0.1, 0.3, 0.6, 1.0)]
    assert all(i2 > i1 for i1, i2 in zip(currents, currents[1:]))


def test_saturation_flattens_output(engine):
    g_lin = (engine.drain_current(1.0, 0.10) -
             engine.drain_current(1.0, 0.05)) / 0.05
    g_sat = (engine.drain_current(1.0, 1.00) -
             engine.drain_current(1.0, 0.95)) / 0.05
    assert g_sat < 0.15 * g_lin


def test_reverse_vds_antisymmetric(engine):
    # Source/drain exchange: I(vgs, -vds) = -I(vgs + vds, vds).
    forward = engine.drain_current(0.8 + 0.5, 0.5)
    reverse = engine.drain_current(0.8, -0.5)
    assert reverse == pytest.approx(-forward, rel=1e-9)


def test_subthreshold_swing_near_ideal(engine):
    swing = engine.subthreshold_swing()
    assert 0.058 < swing < 0.075  # V/decade at room temperature


def test_leakage_floor_nonzero(engine):
    assert engine.drain_current(0.0, 1.0) > 0.0


def test_on_current_magnitude(engine):
    # ~0.1-1 mA/um-class drive for this geometry.
    ion = engine.drain_current(1.0, 1.0)
    assert 5e-5 < ion < 1e-3


def test_on_off_ratio(engine):
    ion = engine.drain_current(1.0, 1.0)
    ioff = engine.drain_current(0.0, 1.0)
    assert ion / ioff > 1e6


def test_dibl_increases_saturation_current(engine):
    # Through the effective gate voltage, higher vds raises subthreshold
    # current beyond simple saturation.
    i_low = engine.drain_current(0.15, 0.05)
    i_high = engine.drain_current(0.15, 1.0)
    assert i_high > 2 * i_low


def test_longer_channel_less_current():
    poisson = Poisson1D(StackSpec(t_ox=1e-9, t_si=7e-9, t_box=100e-9))
    short = ChargeSheetModel(
        poisson=poisson, mobility=ELECTRON_MOBILITY,
        short_channel=ShortChannelModel(t_si=7e-9, t_ox=1e-9),
        width=192e-9, l_gate=24e-9)
    long = ChargeSheetModel(
        poisson=poisson, mobility=ELECTRON_MOBILITY,
        short_channel=ShortChannelModel(t_si=7e-9, t_ox=1e-9),
        width=192e-9, l_gate=48e-9)
    assert long.drain_current(1.0, 1.0) < short.drain_current(1.0, 1.0)


def test_l_eff_factor_reduces_current(engine):
    poisson = Poisson1D(StackSpec(t_ox=1e-9, t_si=7e-9, t_box=100e-9,
                                  flatband=0.04))
    stretched = ChargeSheetModel(
        poisson=poisson, mobility=ELECTRON_MOBILITY,
        short_channel=ShortChannelModel(t_si=7e-9, t_ox=1e-9),
        width=192e-9, l_gate=24e-9, l_eff_factor=1.3)
    assert (stretched.drain_current(1.0, 1.0) <
            engine.drain_current(1.0, 1.0))


def test_gate_capacitance_positive_and_bounded(engine):
    c = engine.gate_capacitance_per_area(1.0)
    cox = engine.poisson.oxide_capacitance()
    assert 0 < c <= cox


def test_invalid_construction_rejected():
    poisson = Poisson1D(StackSpec(t_ox=1e-9, t_si=7e-9, t_box=100e-9))
    with pytest.raises(SimulationError):
        ChargeSheetModel(poisson=poisson, mobility=ELECTRON_MOBILITY,
                         short_channel=ShortChannelModel(7e-9, 1e-9),
                         width=-1.0, l_gate=24e-9)
    with pytest.raises(SimulationError):
        ChargeSheetModel(poisson=poisson, mobility=ELECTRON_MOBILITY,
                         short_channel=ShortChannelModel(7e-9, 1e-9),
                         width=192e-9, l_gate=24e-9, l_eff_factor=0.5)


def test_invalid_subthreshold_window_rejected(engine):
    with pytest.raises(SimulationError):
        engine.subthreshold_swing(vg_low=0.2, vg_high=0.2)


def test_drain_current_solves_source_charge_once(engine):
    # One cold q0 solve plus the twelve quadrature steps.
    from repro.observe import Tracer, activate
    tracer = Tracer()
    with activate(tracer):
        engine.drain_current(0.8, 0.5)
    snapshot = tracer.metrics.snapshot()
    assert snapshot["tcad.poisson1d.solves"]["value"] == \
        1 + engine.quadrature_points == 13


def test_drain_currents_equal_one_point_calls_bitwise(engine):
    vgs = np.array([0.0, 0.3, 0.8, 1.0, 0.8, 0.6, 1.0])
    vds = np.array([1.0, 0.05, 0.5, 0.0, -0.5, 0.2, 1.0])
    stacked = engine.drain_currents(vgs, vds)
    alone = [engine.drain_current(float(g), float(d))
             for g, d in zip(vgs, vds)]
    assert stacked.tolist() == alone
    assert stacked[3] == 0.0 and stacked[4] < 0.0


def test_drain_currents_reject_mismatched_lengths(engine):
    with pytest.raises(SimulationError):
        engine.drain_currents([0.5, 0.6], [1.0])
