"""Waveform algebra and measurements."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.spice.waveform import Waveform


def ramp():
    t = np.linspace(0.0, 1.0, 11)
    return Waveform(t, t.copy(), "ramp")


def test_validation():
    with pytest.raises(SimulationError):
        Waveform(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    with pytest.raises(SimulationError):
        Waveform(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(SimulationError):
        Waveform(np.array([0.0]), np.array([1.0]))


def test_value_interpolation():
    wf = ramp()
    assert float(wf.value(0.55)) == pytest.approx(0.55)


def test_duration():
    assert ramp().duration == pytest.approx(1.0)


def test_crossings_rise():
    wf = ramp()
    assert wf.crossings(0.5, "rise") == [pytest.approx(0.5)]
    assert wf.crossings(0.5, "fall") == []


def test_crossings_both_directions():
    t = np.array([0.0, 1.0, 2.0])
    v = np.array([0.0, 1.0, 0.0])
    wf = Waveform(t, v)
    crossings = wf.crossings(0.5)
    assert len(crossings) == 2
    assert crossings[0] == pytest.approx(0.5)
    assert crossings[1] == pytest.approx(1.5)


def test_bad_direction_rejected():
    with pytest.raises(SimulationError):
        ramp().crossings(0.5, "sideways")


def test_integral_and_mean():
    wf = ramp()
    assert wf.integral() == pytest.approx(0.5)
    assert wf.mean() == pytest.approx(0.5)


def test_min_max():
    wf = ramp()
    assert wf.minimum() == 0.0
    assert wf.maximum() == 1.0


def test_window():
    wf = ramp()
    sub = wf.window(0.25, 0.75)
    assert sub.t[0] == pytest.approx(0.25)
    assert sub.t[-1] == pytest.approx(0.75)
    assert sub.mean() == pytest.approx(0.5)


def test_window_validation():
    with pytest.raises(SimulationError):
        ramp().window(0.5, 0.4)
    with pytest.raises(SimulationError):
        ramp().window(-1.0, 0.5)
