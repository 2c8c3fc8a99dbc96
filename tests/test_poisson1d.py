"""Vertical Poisson solver: analytic limits and device behaviour."""

import numpy as np
import pytest

from repro.errors import ConvergenceError
from repro.materials import SILICON_DIOXIDE
from repro.tcad.poisson1d import (
    Poisson1D,
    StackSpec,
    _stacked_tridiagonal_solve,
)


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


# ----------------------------------------------------------------------
# the Newton kernels: direct LAPACK gtsv, carriers on film nodes only
# ----------------------------------------------------------------------
def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def _banded(lower, diag, upper):
    """The (1, 1) ``ab`` layout of ``scipy.linalg.solve_banded``."""
    ab = np.zeros((3, diag.size))
    ab[0, 1:] = upper
    ab[1, :] = diag.reshape(-1)
    ab[2, :-1] = lower
    return ab


def _gtsv_against_solve_banded(lower, diag, upper, rhs):
    from scipy.linalg import solve_banded
    want = solve_banded((1, 1), _banded(lower, diag, upper),
                        rhs.reshape(-1)).reshape(diag.shape)
    got = _stacked_tridiagonal_solve(lower, diag.copy(), upper, rhs.copy())
    assert got.shape == diag.shape
    assert np.array_equal(_bits(got), _bits(want))


def test_gtsv_matches_solve_banded_on_newton_jacobians(solver, monkeypatch):
    import repro.tcad.poisson1d as module
    active_rows = []

    def checked(lower, diag, upper, rhs):
        active_rows.append(diag.shape[0])
        _gtsv_against_solve_banded(lower, diag, upper, rhs)
        return _stacked_tridiagonal_solve(lower, diag, upper, rhs)

    monkeypatch.setattr(module, "_stacked_tridiagonal_solve", checked)
    solver.solve(STACK_GATES, STACK_CHANNELS)
    # Rows leave the stack as they converge: the systems shrink.
    assert active_rows[0] == STACK_GATES.size
    assert len(set(active_rows)) > 2


def test_gtsv_matches_solve_banded_on_random_systems():
    rng = np.random.default_rng(11)
    for k, n in [(1, 2), (1, 65), (3, 65), (7, 9)]:
        lower = rng.normal(size=k * n - 1)
        upper = rng.normal(size=k * n - 1)
        # Diagonally dominant either sign, so no pivot is ever tiny.
        diag = (np.abs(lower).max() + np.abs(upper).max() + 1.0 +
                rng.uniform(size=(k, n))) * rng.choice([-1.0, 1.0], (k, n))
        _gtsv_against_solve_banded(lower, diag, upper,
                                   rng.normal(size=(k, n)))


def test_gtsv_rejects_non_finite_and_singular_systems():
    from scipy.linalg import LinAlgError
    k, n = 2, 5
    lower, upper = np.full(k * n - 1, 0.5), np.full(k * n - 1, 0.5)
    for field in ("diag", "rhs"):
        diag, rhs = np.full((k, n), 3.0), np.ones((k, n))
        {"diag": diag, "rhs": rhs}[field][1, 2] = np.nan
        with pytest.raises(ValueError):
            _stacked_tridiagonal_solve(lower, diag, upper, rhs)
    # Second block's first row is all zero: exactly singular.
    diag = np.full((k, n), 3.0)
    diag[1, 0] = 0.0
    lower[n - 1] = upper[n] = 0.0
    with pytest.raises(LinAlgError):
        _stacked_tridiagonal_solve(lower, diag, upper, np.ones((k, n)))


def _full_row_reference(solver, v_gate, v_channel, psi0=None):
    """One row's Newton with carriers on every node masked to the film,
    ``solve_banded`` and ``np.clip``: the arithmetic the stacked,
    film-only ``gtsv`` solve must reproduce bit for bit."""
    from scipy.linalg import solve_banded
    from repro.constants import Q
    n_nodes = solver.mesh.n_nodes
    psi_top = v_gate - solver.stack.flatband
    psi = (np.linspace(psi_top, 0.0, n_nodes) if psi0 is None
           else np.array(psi0, dtype=float))
    psi[0], psi[-1] = psi_top, 0.0
    cond, mask = solver._cond, solver._film_mask
    volumes = solver._volumes[1:-1]
    coupling = -(cond[1:] + cond[:-1])
    for iteration in range(1, solver.MAX_ITERATIONS + 1):
        n, p, dn, dp = solver._carriers(psi, v_channel)
        rho = Q * (p - n + solver.stack.net_doping) * mask
        drho = Q * (dp - dn) * mask
        flux = cond * (psi[1:] - psi[:-1])
        f = np.zeros(n_nodes)
        f[1:-1] = flux[1:] - flux[:-1] + rho[1:-1] * volumes
        diag = np.ones(n_nodes)
        diag[1:-1] = coupling + drho[1:-1] * volumes
        delta = solve_banded((1, 1), _banded(solver._lower[1:], diag,
                                             solver._upper[:-1]), -f)
        psi = psi + np.clip(delta, -solver.MAX_UPDATE, solver.MAX_UPDATE)
        if np.max(np.abs(delta)) < solver.TOLERANCE:
            return psi, iteration
    raise AssertionError("reference Newton did not converge")


@pytest.mark.parametrize("start", ["cold", "warm"])
def test_film_only_carriers_equal_full_row_reference(solver, start):
    v_gate = STACK_GATES if start == "cold" else STACK_GATES + 0.01
    psi0 = (None if start == "cold"
            else solver.solve(STACK_GATES, STACK_CHANNELS).psi)
    stacked = solver.solve(v_gate, STACK_CHANNELS, psi0=psi0)
    for i, (vg, vc) in enumerate(zip(v_gate.tolist(),
                                     STACK_CHANNELS.tolist())):
        psi, iterations = _full_row_reference(
            solver, vg, vc, psi0=None if psi0 is None else psi0[i])
        assert np.array_equal(_bits(stacked.psi[i]), _bits(psi))
        assert stacked.iterations[i] == iterations
