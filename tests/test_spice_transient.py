"""Transient integrator: closed-form RC checks, grids, methods."""

import importlib
import math

import numpy as np
import pytest

from repro.compact.model import BsimSoi4Lite
from repro.compact.parameters import default_parameters
from repro.errors import SimulationError
from repro.observe import Tracer, activate
from repro.resilience import FaultInjector, clear_faults, install
from repro.spice import (
    Capacitor,
    Circuit,
    Mosfet,
    Resistor,
    dc_source,
    pulse_source,
    transient,
)
from repro.spice.mna import MnaAssembler
from repro.spice.transient import build_time_grid
from repro.tcad.device import Polarity

# The module, not the ``transient`` function re-exported by the package.
transient_mod = importlib.import_module("repro.spice.transient")


def rc_circuit(tau_r=1e3, tau_c=1e-12):
    c = Circuit("rc")
    c.add(pulse_source("V1", "in", "0", v1=0.0, v2=1.0, delay=1e-10,
                       rise=1e-12, fall=1e-12, width=20e-9, period=50e-9))
    c.add(Resistor("R1", "in", "out", tau_r))
    c.add(Capacitor("C1", "out", "0", tau_c))
    return c


def test_rc_step_response_be():
    c = rc_circuit()
    res = transient(c, t_stop=4e-9, dt=2e-11, method="be")
    wf = res.waveform("out")
    for n_tau in (1.0, 2.0):
        expected = 1.0 - math.exp(-n_tau)
        measured = float(wf.value(1e-10 + n_tau * 1e-9))
        assert measured == pytest.approx(expected, abs=0.01)


def test_rc_step_response_trap_more_accurate():
    c = rc_circuit()
    t_probe = 1e-10 + 1e-9
    expected = 1.0 - math.exp(-1.0)
    err = {}
    for method in ("be", "trap"):
        res = transient(c, t_stop=2e-9, dt=4e-11, method=method)
        err[method] = abs(float(res.waveform("out").value(t_probe)) -
                          expected)
    assert err["trap"] < err["be"]


def test_initial_condition_from_dc():
    c = rc_circuit()
    res = transient(c, t_stop=5e-11, dt=1e-11)
    assert res.waveform("out").v[0] == pytest.approx(0.0, abs=1e-6)


def test_capacitor_current_charge_balance():
    """The supply charge delivered equals C*V after a full charge."""
    c = rc_circuit()
    res = transient(c, t_stop=10e-9, dt=2e-11)
    i_src = res.current("V1")
    delivered = -i_src.integral()  # source current is negative of branch
    assert delivered == pytest.approx(1e-12 * 1.0, rel=0.02)


def test_record_nodes_subset():
    c = rc_circuit()
    res = transient(c, t_stop=1e-9, dt=1e-10, record_nodes=["out"])
    assert "out" in res.node_voltages
    assert "in" not in res.node_voltages
    with pytest.raises(SimulationError):
        res.waveform("in")


def test_record_nodes_rejects_unknown_nodes(monkeypatch):
    def no_dc(*args, **kwargs):
        raise AssertionError("validation must precede the DC solve")

    monkeypatch.setattr(transient_mod, "solve_dc", no_dc)
    with pytest.raises(SimulationError, match="typo"):
        transient(rc_circuit(), t_stop=1e-9, dt=1e-10,
                  record_nodes=["out", "typo"])


def test_record_nodes_allows_ground():
    res = transient(rc_circuit(), t_stop=1e-9, dt=1e-10,
                    record_nodes=["out", "0"])
    assert np.all(res.node_voltages["0"] == 0.0)
    assert res.node_voltages["out"].max() > 0.5


def test_ground_waveform_is_zero():
    c = rc_circuit()
    res = transient(c, t_stop=1e-9, dt=1e-10)
    assert res.waveform("0").maximum() == 0.0


def test_unknown_source_current_raises():
    c = rc_circuit()
    res = transient(c, t_stop=1e-9, dt=1e-10)
    with pytest.raises(SimulationError):
        res.current("VX")


def test_method_validation():
    with pytest.raises(SimulationError):
        transient(rc_circuit(), t_stop=1e-9, dt=1e-10, method="euler")


def test_grid_refines_around_breakpoints():
    grid = build_time_grid(1e-9, 1e-10, [0.5e-9])
    steps = np.diff(grid)
    idx = np.searchsorted(grid, 0.5e-9)
    assert steps[idx] < 1e-11  # refined after the edge
    assert steps[0] == pytest.approx(1e-10)


def test_grid_spans_zero_to_stop():
    grid = build_time_grid(1e-9, 1e-10, [])
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(1e-9)
    assert np.all(np.diff(grid) > 0)


def test_grid_validation():
    with pytest.raises(SimulationError):
        build_time_grid(0.0, 1e-10, [])
    with pytest.raises(SimulationError):
        build_time_grid(1e-9, 0.0, [])


def test_pulse_propagates_through_rc():
    c = rc_circuit(tau_r=100.0, tau_c=1e-13)  # tau = 10 ps, fast
    res = transient(c, t_stop=3e-9, dt=2e-11)
    out = res.waveform("out")
    assert out.maximum() > 0.99


# ----------------------------------------------------------------------
# charge hand-forward between timesteps
# ----------------------------------------------------------------------
def rc_loaded_inverter():
    nmos = BsimSoi4Lite(params=default_parameters(), polarity=Polarity.NMOS)
    pmos = BsimSoi4Lite(params=default_parameters(), polarity=Polarity.PMOS)
    c = Circuit("inv_rc")
    c.add(dc_source("VDD", "vdd", "0", 1.0))
    c.add(pulse_source("VIN", "in", "0", v1=0.0, v2=1.0, delay=1e-10,
                       rise=2e-11, fall=2e-11, width=3e-10, period=1e-9))
    c.add(Mosfet("MP", "out", "in", "vdd", pmos))
    c.add(Mosfet("MN", "out", "in", "0", nmos))
    c.add(Resistor("RL", "out", "load", 2e3))
    c.add(Capacitor("CL", "load", "0", 2e-15))
    return c


def _bits(result):
    parts = [result.times.tobytes()]
    for table in (result.node_voltages, result.source_currents):
        parts.extend(table[k].tobytes() for k in sorted(table))
    return b"".join(parts)


def test_converged_charges_are_handed_forward(monkeypatch):
    """One charge evaluation per Newton iteration plus one for t = 0:
    a converged state's charges serve the next step's first iteration."""
    static_calls = {}
    dynamic_calls = {}
    assemble_static = MnaAssembler.assemble_static
    assemble_dynamic = MnaAssembler.assemble_dynamic

    def counted_static(self, x, time):
        static_calls[id(self)] = static_calls.get(id(self), 0) + 1
        return assemble_static(self, x, time)

    def counted_dynamic(self, x):
        dynamic_calls[id(self)] = dynamic_calls.get(id(self), 0) + 1
        return assemble_dynamic(self, x)

    monkeypatch.setattr(MnaAssembler, "assemble_static", counted_static)
    monkeypatch.setattr(MnaAssembler, "assemble_dynamic", counted_dynamic)
    tracer = Tracer()
    with activate(tracer):
        transient(rc_loaded_inverter(), t_stop=1e-9, dt=5e-11)
    assert tracer.counter("spice.transient.rejected_steps").value == 0
    # The transient's own assembler is the one that evaluated charges;
    # each of its static assemblies is one Newton iteration.
    (key, n_dynamic), = dynamic_calls.items()
    assert n_dynamic == static_calls[key] + 1


def test_hand_forward_matches_unmemoised_reference_after_rejection(
        monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)

    def run():
        install(FaultInjector.parse(
            "convergence:transient.newton:after=5,fatal=1"))
        tracer = Tracer()
        try:
            with activate(tracer):
                result = transient(rc_loaded_inverter(), t_stop=1e-9,
                                   dt=5e-11)
        finally:
            clear_faults()
        assert tracer.counter("spice.transient.rejected_steps").value == 1
        return result

    memoised = run()
    monkeypatch.setattr(transient_mod, "_memoised", lambda evaluate: evaluate)
    reference = run()
    assert _bits(memoised) == _bits(reference)
