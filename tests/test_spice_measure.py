"""Delay / power measurement helpers."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.spice import measure
from repro.spice.waveform import Waveform


def edge(t_cross, rise=True, t_span=4e-9, width=1e-11):
    """A single full-swing edge crossing 0.5 at t_cross."""
    t = np.array([0.0, t_cross - width, t_cross + width, t_span])
    v = np.array([0.0, 0.0, 1.0, 1.0]) if rise else \
        np.array([1.0, 1.0, 0.0, 0.0])
    return Waveform(t, v)


def test_single_delay_pairing():
    inp = edge(1e-9, rise=True)
    out = edge(1.05e-9, rise=False)
    delays = measure.propagation_delays(inp, out, 1.0)
    assert len(delays) == 1
    assert delays[0].delay == pytest.approx(0.05e-9, rel=1e-6)
    assert delays[0].in_direction == "rise"
    assert delays[0].out_direction == "fall"


def test_settle_skips_early_edges():
    inp = edge(1e-9)
    out = edge(1.05e-9, rise=False)
    assert measure.propagation_delays(inp, out, 1.0, settle=2e-9) == []


def test_output_after_next_input_edge_not_paired():
    # Output responds only after the second input edge: the first input
    # edge must not claim it.
    t_in = np.array([0.0, 0.99e-9, 1.01e-9, 1.99e-9, 2.01e-9, 4e-9])
    vin = Waveform(t_in, np.array([0, 0, 1, 1, 0, 0]))
    out = edge(2.05e-9, rise=True)
    delays = measure.propagation_delays(vin, out, 1.0)
    assert len(delays) == 1
    assert delays[0].t_in == pytest.approx(2.0e-9, rel=1e-3)


def test_average_power_constant_current():
    t = np.linspace(0.0, 1e-9, 11)
    current = Waveform(t, np.full_like(t, -1e-3))  # 1 mA drawn
    assert measure.average_power(current, 1.0) == pytest.approx(1e-3)


def test_average_power_window():
    t = np.linspace(0.0, 2e-9, 21)
    i = np.where(t < 1e-9, -1e-3, 0.0)
    wf = Waveform(t, i)
    p = measure.average_power(wf, 1.0, 0.0, 1e-9)
    assert p == pytest.approx(1e-3, rel=0.08)


def test_average_power_validation():
    t = np.linspace(0.0, 1e-9, 5)
    wf = Waveform(t, np.zeros_like(t))
    with pytest.raises(SimulationError):
        measure.average_power(wf, 0.0)
