"""Failure injection: solvers and builders must fail loudly and
diagnostically, never silently."""

import numpy as np
import pytest

from repro.errors import (
    ConvergenceError,
    NetlistError,
    SimulationError,
    SingularMatrixError,
)
from repro.spice import Circuit, Resistor, dc_source, transient
from repro.spice.dcop import solve_dc
from repro.spice.elements.capacitor import Capacitor
from repro.spice.mna import MnaAssembler
from repro.spice.newton import newton_solve


def test_floating_subcircuit_resolved_by_gmin():
    """A subcircuit with no DC path to ground would make the raw MNA
    matrix singular; GMIN pins it to 0 V instead of crashing."""
    c = Circuit()
    c.add(dc_source("V1", "a", "0", 1.0))
    c.add(Resistor("R1", "a", "0", 1e3))
    c.add(Resistor("R2", "x", "y", 1e3))
    c.add(Resistor("R3", "x", "y", 1e3))
    op = solve_dc(c)
    assert op.voltage("x") == pytest.approx(0.0, abs=1e-6)
    assert op.voltage("y") == pytest.approx(0.0, abs=1e-6)


def test_voltage_source_loop_is_singular():
    c = Circuit()
    c.add(dc_source("V1", "a", "0", 1.0))
    c.add(dc_source("V2", "a", "0", 2.0))  # conflicting hard sources
    c.add(Resistor("R1", "a", "0", 1e3))
    with pytest.raises(SingularMatrixError):
        solve_dc(c)


def test_newton_divergence_reports_iterations():
    c = Circuit()
    c.add(dc_source("V1", "a", "0", 1.0))
    c.add(Resistor("R1", "a", "0", 1e3))
    assembler = MnaAssembler(c)

    class Bouncer:
        """An extra system that keeps the solution moving forever."""

        def __init__(self):
            self.flip = 1.0

        def __call__(self, runs, x, matrix, rhs):
            self.flip = -self.flip
            rhs += self.flip * 10.0

    with pytest.raises(ConvergenceError) as err:
        newton_solve(assembler, np.zeros(assembler.n_unknowns), 0.0,
                     extra_system=Bouncer())
    assert err.value.iterations > 0
    assert np.isfinite(err.value.residual)


def test_transient_requires_valid_method():
    c = Circuit()
    c.add(dc_source("V1", "a", "0", 1.0))
    c.add(Resistor("R1", "a", "0", 1e3))
    with pytest.raises(SimulationError):
        transient(c, t_stop=1e-9, dt=1e-10, method="rk4")


def test_transient_rejects_bad_times():
    c = Circuit()
    c.add(dc_source("V1", "a", "0", 1.0))
    c.add(Resistor("R1", "a", "0", 1e3))
    with pytest.raises(SimulationError):
        transient(c, t_stop=-1.0, dt=1e-10)


def test_empty_circuit_rejected_before_solving():
    with pytest.raises(NetlistError):
        solve_dc(Circuit())


def test_capacitor_only_node_survives_via_gmin():
    """A node held only by a capacitor is kept solvable by GMIN."""
    c = Circuit()
    c.add(dc_source("V1", "a", "0", 1.0))
    c.add(Resistor("R1", "a", "b", 1e3))
    c.add(Capacitor("C1", "b", "0", 1e-15))
    op = solve_dc(c)
    # GMIN pulls the floating node to the driven value.
    assert op.voltage("b") == pytest.approx(1.0, abs=1e-3)


def test_poisson_failure_diagnostics():
    from repro.tcad.poisson1d import Poisson1D, StackSpec
    solver = Poisson1D(StackSpec(t_ox=1e-9, t_si=7e-9, t_box=100e-9))
    solver.MAX_ITERATIONS = 2
    with pytest.raises(ConvergenceError) as err:
        solver.solve(1.0)
    assert "v_gate" in str(err.value)


def test_extraction_rejects_mismatched_targets(nmos_targets):
    from repro.extraction.error import relative_errors
    from repro.errors import ExtractionError
    with pytest.raises(ExtractionError):
        relative_errors(np.zeros(3), np.ones(5))
