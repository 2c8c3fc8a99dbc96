"""Transient integrator: closed-form RC checks, grids, methods."""

import dataclasses
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

    def counted_static(self, x, time, scale=1.0):
        static_calls[id(self)] = static_calls.get(id(self), 0) + 1
        return assemble_static(self, x, time, scale)

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


# ----------------------------------------------------------------------
# lockstep runs: the batch equals each run integrated alone
# ----------------------------------------------------------------------
#: Long enough to cover the stimulus' rising edge and its settling.
LOCKSTEP_T_STOP = 6e-10

#: Counters that must add up over the runs of a batch.
RUN_COUNTERS = ("spice.newton.solves", "spice.newton.iterations",
                "spice.mna.solves", "spice.transient.timesteps")


def _default_models():
    from repro.cells.variants import DeviceVariant, ModelSet
    return ModelSet(
        DeviceVariant.MIV_2CH,
        BsimSoi4Lite(params=default_parameters(), polarity=Polarity.NMOS),
        BsimSoi4Lite(params=default_parameters(), polarity=Polarity.PMOS))


def nand3_runs(models=None):
    """One NAND3X1 netlist per stimulus run, on default-parameter
    models (no extraction needed)."""
    from repro.cells.library import get_cell
    from repro.cells.netlist_builder import build_cell_circuit
    from repro.cells.vectors import stimulus_plan_for
    from repro.ppa.runner import _configure_sources
    spec = get_cell("NAND3X1")
    models = models or _default_models()
    circuits = []
    for run in stimulus_plan_for(spec).runs:
        netlist = build_cell_circuit(spec, models)
        _configure_sources(netlist, run)
        circuits.append(netlist.circuit)
    return circuits


def _traced(simulate, faults=None):
    """``simulate()`` under a fresh tracer (and fault spec): its result
    and the tracer."""
    tracer = Tracer()
    if faults:
        install(FaultInjector.parse(faults))
    try:
        with activate(tracer):
            return simulate(), tracer
    finally:
        clear_faults()


def _lockstep_and_alone(faults=None, solo_faults=None):
    """The NAND3X1 runs integrated in lockstep under ``faults``, and
    each run integrated alone under ``solo_faults[run]``."""
    circuits = nand3_runs()
    batch, tracer = _traced(
        lambda: transient(circuits, t_stop=LOCKSTEP_T_STOP, dt=2e-11),
        faults)
    solo = [_traced(lambda c=c: transient(c, t_stop=LOCKSTEP_T_STOP,
                                          dt=2e-11),
                    (solo_faults or {}).get(r))
            for r, c in enumerate(nand3_runs())]
    return batch, tracer, solo


def _counts(tracer, name):
    return tracer.counter(name).value


def test_lockstep_runs_equal_each_run_alone(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    batch, tracer, solo = _lockstep_and_alone()
    assert len(batch) == len(solo) == 3
    for got, (want, _) in zip(batch, solo):
        assert set(got.node_voltages) == set(want.node_voltages)
        assert _bits(got) == _bits(want)
    # The runs differ: the oracle is not comparing one run thrice.
    assert len({_bits(result) for result in batch}) == 3
    for name in RUN_COUNTERS:
        assert _counts(tracer, name) == sum(
            _counts(t, name) for _, t in solo), name
    assert _counts(tracer, "spice.transient.runs") == 3


def test_lockstep_model_calls_are_shared_across_runs(monkeypatch):
    """Per Newton iteration, one ``ids_batch`` for every MOSFET of every
    run still iterating: fewer calls than the runs make alone."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    calls = {"ids": 0}
    ids_batch = BsimSoi4Lite.ids_batch

    def counted_ids(self, vgs, vds, devices=None):
        calls["ids"] += 1
        return ids_batch(self, vgs, vds, devices=devices)

    monkeypatch.setattr(BsimSoi4Lite, "ids_batch", counted_ids)
    transient(nand3_runs(), t_stop=LOCKSTEP_T_STOP, dt=2e-11)
    lockstep = calls["ids"]
    calls["ids"] = 0
    for circuit in nand3_runs():
        transient(circuit, t_stop=LOCKSTEP_T_STOP, dt=2e-11)
    assert lockstep < calls["ids"]


def test_mosfet_stamps_once_per_assembly(monkeypatch):
    """Each assembly of the NAND3X1 lockstep batch lays out every
    MOSFET's values with one ``Mosfet.stamp_static`` (static) or
    ``Mosfet.stamp_dynamic`` (dynamic) call, whatever the number of
    devices, model instances and runs; zero calls would be a blind spot
    of the perf trace, which counts them."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    calls = dict.fromkeys(("assemble_static", "assemble_dynamic",
                           "stamp_static", "stamp_dynamic"), 0)

    def counted(owner, name, wrap=lambda f: f):
        original = getattr(owner, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrap(call))

    counted(MnaAssembler, "assemble_static")
    counted(MnaAssembler, "assemble_dynamic")
    counted(Mosfet, "stamp_static", staticmethod)
    counted(Mosfet, "stamp_dynamic", staticmethod)
    circuits = nand3_runs()
    groups = {id(e.model) for e in circuits[0] if isinstance(e, Mosfet)}
    assert len(circuits) == 3 and len(groups) == 2
    transient(circuits, t_stop=LOCKSTEP_T_STOP, dt=2e-11)
    assert calls["assemble_static"] > 0 and calls["assemble_dynamic"] > 0
    assert calls["stamp_static"] == calls["assemble_static"]
    assert calls["stamp_dynamic"] == calls["assemble_dynamic"]


#: Fault draws of the lockstep batch: step s (1-based) of run r is draw
#: 3 * (s - 1) + r + 1 at the ``transient.newton`` site.
_FAULTED_STEP, _FAULTED_RUN = 5, 1
_BATCH_DRAW = 3 * (_FAULTED_STEP - 1) + _FAULTED_RUN + 1


@pytest.mark.parametrize("fatal", [True, False],
                         ids=["rejected", "rescued"])
def test_a_faulted_run_equals_itself_alone(monkeypatch, fatal):
    """One run's step is fault-rejected (fatal: halved and sub-stepped)
    or rescued (non-fatal: the rescue ladder); that run equals itself
    integrated alone under the same fault, the other runs are
    untouched, and the counters still add up."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    option = ",fatal=1" if fatal else ""
    batch, tracer, solo = _lockstep_and_alone(
        f"convergence:transient.newton:after={_BATCH_DRAW}{option}",
        {_FAULTED_RUN: f"convergence:transient.newton:"
                       f"after={_FAULTED_STEP}{option}"})
    for got, (want, _) in zip(batch, solo):
        assert _bits(got) == _bits(want)
    clean, _ = _traced(lambda: transient(
        nand3_runs()[_FAULTED_RUN], t_stop=LOCKSTEP_T_STOP, dt=2e-11))
    assert _bits(batch[_FAULTED_RUN]) != _bits(clean)
    event = ("spice.transient.rejected_steps" if fatal
             else "spice.newton.rescues")
    assert _counts(tracer, event) == 1
    for name in RUN_COUNTERS + (event,):
        assert _counts(tracer, name) == sum(
            _counts(t, name) for _, t in solo), name


def test_lockstep_rejects_runs_that_differ():
    from repro.cells.library import get_cell
    from repro.cells.netlist_builder import build_cell_circuit
    runs = nand3_runs()
    # Another topology.
    nor3 = build_cell_circuit(get_cell("NOR3X1"), _default_models())
    with pytest.raises(SimulationError, match="share"):
        transient([runs[0], nor3.circuit], t_stop=LOCKSTEP_T_STOP,
                  dt=2e-11)
    # The same topology on other model instances.
    other = nand3_runs(_default_models())
    with pytest.raises(SimulationError, match="share"):
        transient([runs[0], other[1]], t_stop=LOCKSTEP_T_STOP, dt=2e-11)
    # Other source breakpoints.
    late = rc_circuit()
    late.element("V1").waveform = dataclasses.replace(
        late.element("V1").waveform, delay=2e-10)
    with pytest.raises(SimulationError, match="breakpoints"):
        transient([rc_circuit(), late], t_stop=1e-9, dt=1e-10)
