"""Solver rescue ladders: Newton gmin/source continuation and transient
timestep rejection — driven by the deterministic fault injector."""

import numpy as np
import pytest

from repro.errors import ConvergenceError
from repro.observe import Tracer, activate
from repro.resilience import FaultInjector, clear_faults, install
from repro.spice import (
    Circuit,
    CurrentSource,
    Resistor,
    dc_source,
    pulse_source,
    transient,
)
from repro.spice import newton
from repro.spice.dcop import solve_dc
from repro.spice.elements.vsource import PwlSpec
from repro.spice.mna import MnaAssembler
from repro.spice.newton import newton_solve


@pytest.fixture(autouse=True)
def _no_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    clear_faults()
    yield
    clear_faults()


def _divider():
    c = Circuit()
    c.add(dc_source("V1", "a", "0", 1.0))
    c.add(Resistor("R1", "a", "b", 1e3))
    c.add(Resistor("R2", "b", "0", 1e3))
    return c


# ----------------------------------------------------------------------
# Newton rescue ladder
# ----------------------------------------------------------------------
def test_injected_primary_failure_engages_rescue_bit_identical():
    """A non-fatal convergence fault skips the damped rungs; the gmin
    rescue must still land on the same solution bits (the system is
    linear, so every converging path ends at the same linear solve)."""
    assembler = MnaAssembler(_divider())
    x0 = np.zeros(assembler.n_unknowns)
    reference = newton_solve(assembler, x0, 0.0)

    install(FaultInjector.parse("convergence:newton:first=1"))
    tracer = Tracer()
    with activate(tracer):
        rescued = newton_solve(assembler, x0, 0.0)
    assert np.array_equal(rescued, reference)
    assert tracer.counter("spice.newton.rescues").value == 1
    assert tracer.counter("spice.newton.rescues.gmin").value == 1

    # Same ladder through the DC operating-point entry point.
    clean = solve_dc(_divider())
    install(FaultInjector.parse("convergence:newton:first=1"))
    tracer = Tracer()
    with activate(tracer):
        assert solve_dc(_divider()).voltages == clean.voltages
    assert tracer.counter("spice.newton.rescues.gmin").value == 1


def test_fatal_fault_fails_the_whole_solve():
    assembler = MnaAssembler(_divider())
    install(FaultInjector.parse(
        "convergence:newton:fatal=1,message=forced dc failure"))
    with pytest.raises(ConvergenceError, match="forced dc failure"):
        newton_solve(assembler, np.zeros(assembler.n_unknowns), 0.0)


def test_fatal_fault_propagates_through_solve_dc():
    """solve_dc is one newton_solve: a fatal fault reaches the caller
    as the injected error after a single draw, with no second try."""
    injector = FaultInjector.parse(
        "convergence:newton:fatal=1,message=forced dc failure")
    install(injector)
    with pytest.raises(ConvergenceError, match="forced dc failure"):
        solve_dc(_divider())
    assert injector.rules[0].draws == 1


def test_fault_free_solves_draw_nothing():
    """Without an injector the solve takes the unmodified fast path."""
    assembler = MnaAssembler(_divider())
    a = newton_solve(assembler, np.zeros(assembler.n_unknowns), 0.0)
    b = newton_solve(assembler, np.zeros(assembler.n_unknowns), 0.0)
    assert np.array_equal(a, b)
    op = solve_dc(_divider())
    assert op.voltage("b") == pytest.approx(0.5, abs=1e-6)


def _sabotage(times: int):
    """extra_system that zeroes the matrix for its first ``times`` calls,
    making the linearised system exactly singular."""
    count = {"left": times}

    def wrecker(runs, x, matrix, rhs) -> None:
        if count["left"] > 0:
            count["left"] -= 1
            matrix[:, :] = 0.0
    return wrecker


def test_singular_damped_rung_falls_through_to_next_rung():
    """A singular system on the first damped rung is treated like
    non-convergence: the second rung solves the (now healthy) system
    and the result matches the clean solve bitwise."""
    assembler = MnaAssembler(_divider())
    x0 = np.zeros(assembler.n_unknowns)
    reference = newton_solve(assembler, x0, 0.0)

    tracer = Tracer()
    with activate(tracer):
        recovered = newton_solve(assembler, x0, 0.0,
                                 extra_system=_sabotage(1))
    assert np.array_equal(recovered, reference)
    assert tracer.counter("spice.newton.singular_systems").value == 1
    assert tracer.counter("spice.newton.rescues").value == 0


def test_singular_damped_rungs_engage_gmin_rescue():
    """Both damped rungs hit singular systems: the gmin rescue must
    engage (the rescue's own solves see the healthy system again)."""
    assembler = MnaAssembler(_divider())
    x0 = np.zeros(assembler.n_unknowns)
    reference = newton_solve(assembler, x0, 0.0)

    tracer = Tracer()
    with activate(tracer):
        rescued = newton_solve(assembler, x0, 0.0,
                               extra_system=_sabotage(2))
    assert np.array_equal(rescued, reference)
    assert tracer.counter("spice.newton.singular_systems").value == 2
    assert tracer.counter("spice.newton.rescues.gmin").value == 1


def test_hard_singular_system_raises_the_structural_diagnosis():
    """When every rung sees a singular system the solver re-raises
    SingularMatrixError (code spice.singular_matrix), not a generic
    non-convergence."""
    from repro.errors import SingularMatrixError
    assembler = MnaAssembler(_divider())
    with pytest.raises(SingularMatrixError) as err:
        newton_solve(assembler, np.zeros(assembler.n_unknowns), 0.0,
                     extra_system=_sabotage(10 ** 6))
    assert err.value.code == "spice.singular_matrix"


def _rescue_at(circuit, time, monkeypatch):
    """Source continuation of ``circuit`` at ``time``: the solution at
    factor 0 (recorded on the way) and the rescued solution."""
    assembler = MnaAssembler(circuit)
    start = {}
    continue_solve = newton.continue_solve

    def recording(solve_at, **kwargs):
        start["x"] = solve_at(0.0, None)
        return continue_solve(solve_at, **kwargs)

    monkeypatch.setattr(newton, "continue_solve", recording)
    x, _, _ = newton._rescue_source(
        assembler, np.zeros(assembler.n_unknowns), time, None)
    assert x is not None
    return assembler, start["x"], x


def test_source_continuation_solves_the_circuit_at_the_solve_time(
        monkeypatch):
    """At t = 5e-10 the pulse is at v2 = 1.0: the rescue must land on
    the same solution as the damped iteration, not on the t = 0 circuit
    (v1 = 0.2); and the circuit's source is left as it was."""
    c = Circuit()
    c.add(pulse_source("V1", "a", "0", v1=0.2, v2=1.0, delay=1e-10))
    c.add(Resistor("R1", "a", "0", 1e3))
    waveform = c.element("V1").waveform
    assembler, start, rescued = _rescue_at(c, 5e-10, monkeypatch)
    direct, _, converged, _ = newton._damped_iteration(
        assembler, np.zeros(assembler.n_unknowns), 5e-10, None,
        newton.MAX_STEP, newton.MAX_ITERATIONS)
    assert converged
    a = assembler.node_index["a"]
    assert direct[a] == pytest.approx(1.0)
    assert rescued[a] == pytest.approx(direct[a], abs=1e-9)
    assert np.all(start == 0.0)
    assert c.element("V1").waveform is waveform


def test_source_continuation_ramps_current_sources(monkeypatch):
    """Continuation starts from every independent source at zero,
    current sources included, and ends at their value at the solve's
    time: 1 mA into 1 kOhm at t = 5e-10."""
    c = Circuit()
    c.add(CurrentSource("I1", "0", "a",
                        PwlSpec(((0.0, 2e-4), (1e-10, 1e-3)))))
    c.add(Resistor("R1", "a", "0", 1e3))
    assembler, start, rescued = _rescue_at(c, 5e-10, monkeypatch)
    assert np.all(start == 0.0)
    assert rescued[assembler.node_index["a"]] == pytest.approx(1.0)


# ----------------------------------------------------------------------
# transient timestep rejection
# ----------------------------------------------------------------------
def _rc_pulse(stages: int = 1):
    """Pulse-driven RC low-pass; ``stages > 1`` chains an RC ladder.
    The last stage's node is always ``out``."""
    from repro.spice.elements.capacitor import Capacitor
    c = Circuit()
    c.add(pulse_source("V1", "in", "0", v1=0.0, v2=1.0, delay=1e-10,
                       rise=2e-11, fall=2e-11, width=4e-10))
    prev = "in"
    for i in range(1, stages + 1):
        node = "out" if i == stages else f"n{i}"
        c.add(Resistor(f"R{i}", prev, node, 1e3))
        c.add(Capacitor(f"C{i}", node, "0", 1e-13))
        prev = node
    return c


def test_timestep_rejection_recovers_from_fatal_faults():
    for stages in (1, 24):
        reference = transient(_rc_pulse(stages), t_stop=1e-9, dt=5e-11)

        # The first 3 timestep solves fail fatally (site
        # transient.newton leaves the t=0 DC operating point
        # untouched); halved sub-steps must carry the waveform through.
        install(FaultInjector.parse(
            "convergence:transient.newton:first=3,fatal=1"))
        tracer = Tracer()
        with activate(tracer):
            rescued = transient(_rc_pulse(stages), t_stop=1e-9, dt=5e-11)
        clear_faults()

        assert np.array_equal(rescued.times, reference.times)
        assert tracer.counter("spice.transient.rejected_steps").value >= 1
        # Sub-stepped integration differs in the last bits but must
        # stay a faithful waveform.
        ref = reference.waveform("out").v
        got = rescued.waveform("out").v
        assert np.max(np.abs(got - ref)) < 1e-3


def test_fault_free_transient_is_deterministic():
    a = transient(_rc_pulse(), t_stop=1e-9, dt=5e-11)
    b = transient(_rc_pulse(), t_stop=1e-9, dt=5e-11)
    assert np.array_equal(a.waveform("out").v,
                          b.waveform("out").v)


def test_unrecoverable_transient_still_raises():
    # Every timestep solve fails fatally: once h reaches h/2**7 the
    # integrator must give up loudly, not loop forever.
    install(FaultInjector.parse("convergence:transient.newton:fatal=1"))
    with pytest.raises(ConvergenceError):
        transient(_rc_pulse(), t_stop=1e-9, dt=5e-11)
