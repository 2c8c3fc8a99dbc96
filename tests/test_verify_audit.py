"""Regression tests from the verification-subsystem solver audit.

``spice.transient.build_time_grid`` was audited for latent edge
dependence: its near-duplicate filter used to drop the *later* point of
a too-close pair, which silently dropped ``t_stop`` itself whenever a
refined breakpoint-window point landed within ``fine/1000`` below it
(found by construction, fixed by dropping the earlier point instead).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.spice.transient import EDGE_REFINE, build_time_grid


# ----------------------------------------------------------------------
# build_time_grid: named times must survive the near-duplicate filter
# ----------------------------------------------------------------------
def test_grid_keeps_t_stop_despite_nearby_refined_point():
    """Regression: a refined window point just below t_stop used to
    evict t_stop itself, ending the waveform early."""
    dt, t_stop = 1e-10, 1e-9
    fine = dt / EDGE_REFINE
    breakpoint_ = t_stop - 3 * fine - fine * 1e-4
    grid = build_time_grid(t_stop, dt, [breakpoint_])
    assert grid[-1] == t_stop
    assert np.any(grid == breakpoint_)


def test_grid_keeps_breakpoints_near_coarse_points():
    dt, t_stop = 1e-10, 1e-9
    fine = dt / EDGE_REFINE
    breakpoint_ = 3 * dt + fine * 1e-4  # just after a coarse point
    grid = build_time_grid(t_stop, dt, [breakpoint_])
    assert np.any(grid == breakpoint_)


def test_grid_always_starts_at_zero():
    dt, t_stop = 1e-10, 1e-9
    fine = dt / EDGE_REFINE
    # A breakpoint window starting at a near-zero instant must not
    # evict t = 0 (the DC operating point anchor).
    grid = build_time_grid(t_stop, dt, [fine * 1e-4])
    assert grid[0] == 0.0


def test_grid_has_no_tiny_steps():
    dt, t_stop = 1e-10, 1e-9
    fine = dt / EDGE_REFINE
    breakpoints = [1.23e-10, 1.23e-10 + fine * 1e-4,
                   t_stop - fine * 1e-4]
    grid = build_time_grid(t_stop, dt, breakpoints)
    assert np.diff(grid).min() > fine * 1e-3
    assert grid[0] == 0.0 and grid[-1] == t_stop


def test_transient_waveform_reaches_t_stop():
    """End-to-end: the recorded waveform's final sample sits exactly
    at t_stop even with an adversarial source corner."""
    from repro.spice import Circuit, Resistor, pwl_source, transient
    from repro.spice.elements.capacitor import Capacitor
    dt, t_stop = 1e-10, 1e-9
    fine = dt / EDGE_REFINE
    corner = t_stop - 3 * fine - fine * 1e-4
    circuit = Circuit()
    circuit.add(pwl_source("V1", "in", "0",
                           [(0.0, 0.0), (corner, 1.0), (t_stop, 1.0)]))
    circuit.add(Resistor("R1", "in", "out", 1e3))
    circuit.add(Capacitor("C1", "out", "0", 1e-13))
    wave = transient(circuit, t_stop=t_stop, dt=dt).waveform("out")
    assert wave.t[-1] == pytest.approx(t_stop, abs=0.0)
