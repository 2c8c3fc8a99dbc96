"""Vertical Poisson solver: analytic limits and device behaviour."""

import numpy as np
import pytest

from repro.errors import ConvergenceError
from repro.materials import SILICON_DIOXIDE
from repro.tcad.poisson1d import Poisson1D, StackSpec


@pytest.fixture(scope="module")
def solver():
    return Poisson1D(StackSpec(t_ox=1e-9, t_si=7e-9, t_box=100e-9,
                               flatband=0.0))


def test_flat_potential_at_zero_bias_is_near_zero(solver):
    sol = solver.solve(0.0)
    # Undoped film, zero flatband: potential stays within tens of mV.
    assert np.max(np.abs(sol.psi)) < 0.1


def test_boundary_conditions(solver):
    sol = solver.solve(0.7)
    assert sol.psi[0] == pytest.approx(0.7)
    assert sol.psi[-1] == pytest.approx(0.0)


def test_inversion_charge_increases_with_gate_voltage(solver):
    charges = [solver.inversion_charge(v) for v in (0.2, 0.5, 0.8, 1.1)]
    assert all(q2 > q1 for q1, q2 in zip(charges, charges[1:]))


def test_subthreshold_charge_is_exponential(solver):
    # In weak inversion, Q doubles every vt*ln2 of gate voltage.
    q1 = solver.inversion_charge(0.05)
    q2 = solver.inversion_charge(0.05 + solver.vt * np.log(10))
    assert q2 / q1 == pytest.approx(10.0, rel=0.1)


def test_strong_inversion_slope_approaches_cox(solver):
    # dQ/dVg -> Cox (series with inversion-layer cap, so slightly less).
    cox = solver.oxide_capacitance()
    q1 = solver.inversion_charge(1.0)
    q2 = solver.inversion_charge(1.05)
    slope = (q2 - q1) / 0.05
    assert 0.5 * cox < slope < cox


def test_channel_potential_reduces_charge(solver):
    q0 = solver.inversion_charge(0.8, 0.0)
    q1 = solver.inversion_charge(0.8, 0.3)
    assert q1 < q0


def test_gate_capacitance_limits(solver):
    cox = solver.oxide_capacitance()
    c_strong = solver.gate_capacitance(1.1)
    c_weak = solver.gate_capacitance(-0.3)
    assert c_strong > 0.5 * cox
    assert c_strong < cox * 1.01
    # Fully-depleted film in weak inversion: series Cox + film + BOX cap
    # is far below Cox.
    assert c_weak < 0.2 * cox


def test_oxide_capacitance_value(solver):
    expected = SILICON_DIOXIDE.permittivity / 1e-9
    assert solver.oxide_capacitance() == pytest.approx(expected)


def test_flatband_shifts_charge_onset():
    shifted = Poisson1D(StackSpec(t_ox=1e-9, t_si=7e-9, t_box=100e-9,
                                  flatband=0.2))
    base = Poisson1D(StackSpec(t_ox=1e-9, t_si=7e-9, t_box=100e-9,
                               flatband=0.0))
    # Same charge at vg and vg + flatband.
    assert shifted.inversion_charge(0.7) == pytest.approx(
        base.inversion_charge(0.5), rel=1e-3)


def test_warm_start_converges_faster(solver):
    cold = solver.solve(0.9)
    warm = solver.solve(0.91, psi0=cold.psi)
    assert warm.iterations <= cold.iterations


def test_thinner_oxide_gives_more_charge():
    thin = Poisson1D(StackSpec(t_ox=0.8e-9, t_si=7e-9, t_box=100e-9))
    thick = Poisson1D(StackSpec(t_ox=1.2e-9, t_si=7e-9, t_box=100e-9))
    assert thin.inversion_charge(0.9) > thick.inversion_charge(0.9)


def test_surface_potential_tracks_gate_in_depletion(solver):
    s1 = solver.solve(0.1).surface_potential
    s2 = solver.solve(0.3).surface_potential
    assert s2 > s1


def test_back_bias_influences_charge(solver):
    # Positive back-plane bias helps the (n-type) channel: more charge.
    q0 = solver.solve(0.4, 0.0, v_back=0.0).q_inv
    q1 = solver.solve(0.4, 0.0, v_back=1.0).q_inv
    assert q1 > q0


def test_convergence_error_carries_diagnostics():
    bad = Poisson1D(StackSpec(t_ox=1e-9, t_si=7e-9, t_box=100e-9))
    bad.MAX_ITERATIONS = 1
    with pytest.raises(ConvergenceError) as err:
        bad.solve(1.0)
    assert err.value.iterations == 1


# ----------------------------------------------------------------------
# stacked solves: B rows in one Newton, each bit-identical to its own
# ----------------------------------------------------------------------
def _assert_rows_match_one_row_solves(solver, v_gate, v_channel,
                                      psi0=None):
    stacked = solver.solve(v_gate, v_channel, psi0=psi0)
    assert stacked.psi.shape == (len(v_gate), solver.mesh.n_nodes)
    for i, (vg, vc) in enumerate(zip(v_gate, v_channel)):
        alone = solver.solve(float(vg), float(vc),
                             psi0=None if psi0 is None else psi0[i])
        assert np.array_equal(stacked.psi[i], alone.psi)
        assert stacked.q_inv[i] == alone.q_inv
        assert stacked.q_gate[i] == alone.q_gate
        assert stacked.surface_potential[i] == alone.surface_potential
        assert stacked.iterations[i] == alone.iterations
    return stacked


#: Biases spanning accumulation to strong inversion, with drain-end
#: channel potentials: the rows converge after different iteration counts.
STACK_GATES = np.array([-0.3, 0.0, 0.25, 0.5, 0.8, 1.1, 0.9, 0.4])
STACK_CHANNELS = np.array([0.0, 0.0, 0.1, 0.6, 0.0, 0.05, 0.9, 0.3])


def test_stacked_rows_equal_one_row_solves_bitwise(solver):
    stacked = _assert_rows_match_one_row_solves(solver, STACK_GATES,
                                                STACK_CHANNELS)
    assert len(set(stacked.iterations.tolist())) > 1
    order = np.random.default_rng(7).permutation(STACK_GATES.size)
    permuted = solver.solve(STACK_GATES[order], STACK_CHANNELS[order])
    assert np.array_equal(permuted.psi, stacked.psi[order])
    assert np.array_equal(permuted.q_inv, stacked.q_inv[order])
    assert np.array_equal(permuted.iterations, stacked.iterations[order])


def test_stacked_warm_start_matches_one_row_warm_starts(solver):
    # A column-major guess too: the charges must not depend on layout.
    cold = solver.solve(STACK_GATES, STACK_CHANNELS)
    for psi0 in (cold.psi, np.asfortranarray(cold.psi)):
        _assert_rows_match_one_row_solves(solver, STACK_GATES + 0.01,
                                          STACK_CHANNELS, psi0=psi0)


def test_stacked_rows_bitwise_on_refined_stack_that_pivots():
    # With 96 oxide cells cond[0] > 1 = the Dirichlet diagonal, so the
    # tridiagonal LAPACK solve swaps rows inside each block.
    refined = Poisson1D(StackSpec(t_ox=1e-9, t_si=7e-9, t_box=100e-9,
                                  n_cells_ox=96))
    assert refined.mesh.edge_eps[0] / refined.mesh.h[0] > 1.0
    _assert_rows_match_one_row_solves(refined, STACK_GATES, STACK_CHANNELS)


def test_scalar_channel_broadcasts_over_gate_array(solver):
    # The source-charge and C-V solves pass v_channel = 0.0 for a stack.
    broadcast = solver.solve(STACK_GATES, 0.0)
    explicit = solver.solve(STACK_GATES, np.zeros(STACK_GATES.size))
    assert broadcast.q_inv.shape == (STACK_GATES.size,)
    assert np.array_equal(broadcast.psi, explicit.psi)
    assert np.array_equal(broadcast.q_gate, explicit.q_gate)


def test_stacked_convergence_error_names_the_failing_row(solver):
    quick, slow = 0.0, 1.1
    budget = solver.solve(quick).iterations
    assert solver.solve(slow).iterations > budget
    bad = Poisson1D(solver.stack)
    bad.MAX_ITERATIONS = budget
    with pytest.raises(ConvergenceError) as err:
        bad.solve(np.array([quick, slow]), np.array([0.0, 0.2]))
    assert err.value.iterations == budget
    assert "v_gate=1.100" in str(err.value)
    assert "v_channel=0.200" in str(err.value)


def test_tracer_counts_rows_and_per_row_iterations(solver):
    from repro.observe import Tracer, activate
    tracer = Tracer()
    with activate(tracer):
        stacked = solver.solve(STACK_GATES, STACK_CHANNELS)
    snapshot = tracer.metrics.snapshot()
    assert snapshot["tcad.poisson1d.solves"]["value"] == STACK_GATES.size
    assert snapshot["tcad.poisson1d.iterations"]["value"] == \
        int(stacked.iterations.sum())
    assert snapshot["tcad.poisson1d.iterations_per_solve"]["count"] == \
        STACK_GATES.size
