"""Nonlinear 1-D Poisson solver through the FDSOI gate stack.

Solves, vertically through oxide / silicon film / BOX,

    d/dx ( eps(x) dpsi/dx ) = -q (p - n + N_net)

with Dirichlet boundaries: ``psi = V_G - V_FB`` at the gate/oxide interface
and ``psi = V_back`` at the bottom of the BOX (grounded carrier wafer).
Carriers follow Boltzmann statistics with quasi-Fermi splitting: the
electron quasi-Fermi potential equals the local channel potential ``V``
(0 at source, V_DS at drain) while holes stay at the source reference.

The solver uses a damped Newton iteration on the finite-volume
discretisation; the Jacobian is tridiagonal and solved by LAPACK's
``gtsv`` (the routine ``scipy.linalg.solve_banded`` dispatches to for one
band on each side), called directly.  Carrier densities are evaluated on
the film nodes only -- the oxide and BOX carry no charge -- and written
into zeroed charge rows.  Outputs are the potential profile, the sheet
inversion charge (integral of the minority carrier density over the
film) and the gate charge per unit area (displacement field at the gate
boundary), from which C-V curves are differentiated.

:meth:`Poisson1D.solve` takes one bias point or a stack of ``B`` of them.
A stack runs as one Newton: each iteration places the active rows'
Jacobians on the diagonal of one block-diagonal tridiagonal system (the
couplings between blocks are zero) and solves it with a single LAPACK
call (the constant off-diagonal bands are tiled once per solve and
sliced to the active rows), and a row leaves the active set once its own
update has converged.
Every row does exactly the arithmetic of a solve on its own, so stacking
changes no bit of any result; it only removes the per-call overhead that
dominates at 65 nodes.  The Newton is inexact (the density derivative
ignores the Fermi correction), so converged charges depend on the
starting guess at the 1e-8 level; callers that warm-start must therefore
keep each row's own guess, as :mod:`repro.tcad.charge_sheet` does.  The
``tcad.poisson1d.*`` counters count rows, not calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from numpy.typing import ArrayLike
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

from repro.constants import Q, thermal_voltage
from repro.errors import ConvergenceError
from repro.materials import SILICON, SILICON_DIOXIDE
from repro.observe import get_tracer
from repro.tcad.mesh import Mesh1D, Region
from repro.tcad.statistics import boltzmann_n, boltzmann_p, fermi_correction


@dataclass(frozen=True)
class StackSpec:
    """Vertical stack description for the 1-D solve.

    Attributes
    ----------
    t_ox:
        Front gate oxide thickness [m] (possibly reduced to model the MIV
        side-gate coupling boost; see :mod:`repro.tcad.device`).
    t_si:
        Silicon film thickness [m].
    t_box:
        Buried oxide thickness [m].
    flatband:
        Front-gate flat-band voltage V_FB [V] (workfunction difference).
    net_doping:
        Signed net doping N_D - N_A in the film [m^-3] (0 for the channel).
    temperature:
        Lattice temperature [K].
    n_cells_ox, n_cells_si, n_cells_box:
        Mesh resolution per region.
    """

    t_ox: float
    t_si: float
    t_box: float
    flatband: float = 0.0
    net_doping: float = 0.0
    temperature: float = 298.15
    n_cells_ox: int = 6
    n_cells_si: int = 28
    n_cells_box: int = 30


@dataclass(frozen=True)
class PoissonSolution:
    """Result of a 1-D Poisson solve.

    A scalar bias gives scalar fields; a stack of ``B`` biases gives one
    entry per row: ``psi`` is ``(B, N)`` and the charges, surface
    potential and iteration counts are ``(B,)`` arrays.

    Attributes
    ----------
    psi:
        Electrostatic potential at every node [V].
    x:
        Node positions [m] (0 at the gate/oxide interface).
    q_inv:
        Sheet inversion (minority) charge magnitude [C/m^2].
    q_gate:
        Gate charge per area [C/m^2] (displacement field at the gate).
    surface_potential:
        Potential at the oxide/film interface [V].
    iterations:
        Newton iterations used.
    """

    psi: np.ndarray
    x: np.ndarray
    q_inv: Union[float, np.ndarray]
    q_gate: Union[float, np.ndarray]
    surface_potential: Union[float, np.ndarray]
    iterations: Union[int, np.ndarray]


def _stacked_tridiagonal_solve(lower: np.ndarray, diag: np.ndarray,
                               upper: np.ndarray,
                               rhs: np.ndarray) -> np.ndarray:
    """Solve ``k`` independent tridiagonal systems in one LAPACK call.

    ``diag`` and ``rhs`` are ``(k, n)`` blocks: ``diag[s, i]`` is
    ``A_s[i, i]``.  Stacking the systems along the diagonal keeps the
    compound matrix of size ``k*n`` tridiagonal, and ``lower`` / ``upper``
    (length ``k*n - 1``) are its sub- and super-diagonals: zero at every
    cross-block coupling, so one ``gtsv`` factorisation does exactly the
    per-block elimination, with a call count independent of ``k``.
    ``diag`` and ``rhs`` are overwritten.  As ``solve_banded``, a
    non-finite entry raises ``ValueError`` and a singular system
    ``LinAlgError``.
    """
    if not (np.isfinite(diag).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    _, _, _, x, info = dgtsv(lower, diag.reshape(-1), upper,
                             rhs.reshape(-1), overwrite_d=1, overwrite_b=1)
    if info > 0:
        raise LinAlgError("singular matrix")
    return x.reshape(diag.shape)


class Poisson1D:
    """Newton solver for the vertical FDSOI electrostatics.

    Parameters
    ----------
    stack:
        Stack geometry and conditions.
    use_fermi_correction:
        Apply the first-order degeneracy correction to carrier densities.
    """

    #: Maximum Newton iterations before declaring failure.
    MAX_ITERATIONS = 80
    #: Convergence threshold on the potential update [V].
    TOLERANCE = 1e-9
    #: Maximum per-iteration potential update (damping) [V].
    MAX_UPDATE = 0.5

    def __init__(self, stack: StackSpec, use_fermi_correction: bool = True):
        self.stack = stack
        self.use_fermi_correction = use_fermi_correction
        self.vt = thermal_voltage(stack.temperature)
        self.ni = SILICON.intrinsic_density(stack.temperature)
        self.mesh = Mesh1D([
            Region("oxide", stack.t_ox, stack.n_cells_ox,
                   SILICON_DIOXIDE.permittivity),
            Region("film", stack.t_si, stack.n_cells_si,
                   SILICON.permittivity, has_charge=True),
            Region("box", stack.t_box, stack.n_cells_box,
                   SILICON_DIOXIDE.permittivity),
        ])
        self._film_mask = self.mesh.node_charged
        film_nodes = np.flatnonzero(self._film_mask)
        self._film = slice(int(film_nodes[0]), int(film_nodes[-1]) + 1)
        self._volumes = self.mesh.node_volumes
        self._surface_index = int(np.argmax(self.mesh.region_node_mask("film")))
        # Edge conductances [F/m^2] and the Jacobian's off-diagonals:
        # interior row i couples left via cond[i-1] and right via
        # cond[i]; the Dirichlet rows 0 and N-1 couple to nothing.
        self._cond = self.mesh.edge_eps / self.mesh.h
        n_nodes = self.mesh.n_nodes
        self._lower = np.zeros(n_nodes)
        self._lower[1:-1] = self._cond[:-1]
        self._upper = np.zeros(n_nodes)
        self._upper[1:-1] = self._cond[1:]

    def solve(self, v_gate: ArrayLike, v_channel: ArrayLike = 0.0,
              v_back: float = 0.0,
              psi0: Optional[np.ndarray] = None) -> PoissonSolution:
        """Solve for the potential profile of one bias point or a stack.

        Scalar ``v_gate`` and ``v_channel`` solve one row and return a
        scalar :class:`PoissonSolution`.  Arrays (equal length, or one of
        them scalar) solve every row in one damped Newton: each iteration
        solves all active rows' Jacobians with one stacked LAPACK call,
        and a row leaves the active set once its own update falls below
        :attr:`TOLERANCE`.  Rows are independent, so each row's result is
        bit-identical to solving it alone.

        Parameters
        ----------
        v_gate:
            Front gate voltage [V].
        v_channel:
            Local channel quasi-Fermi potential (0 at source, V_DS at the
            drain end) [V].
        v_back:
            Back-plane (carrier wafer) potential [V].
        psi0:
            Optional initial guess (e.g. the solution at a nearby bias):
            ``(N,)`` for a scalar solve, ``(B, N)`` for a stack.
        """
        scalar = np.ndim(v_gate) == 0 and np.ndim(v_channel) == 0
        v_gate, v_channel = np.broadcast_arrays(
            np.atleast_1d(np.asarray(v_gate, dtype=float)),
            np.atleast_1d(np.asarray(v_channel, dtype=float)))
        rows, n_nodes = v_gate.size, self.mesh.n_nodes
        psi_top = v_gate - self.stack.flatband

        if psi0 is not None and np.shape(psi0) == \
                ((n_nodes,) if scalar else (rows, n_nodes)):
            psi = np.array(psi0, dtype=float).reshape(rows, n_nodes)
        else:
            # Row by row: a vectorised linspace rounds every row
            # differently as soon as one row has psi_top == v_back.
            psi = np.array([np.linspace(top, v_back, n_nodes)
                            for top in psi_top.tolist()])
        psi[:, 0] = psi_top
        psi[:, -1] = v_back

        cond = self._cond
        volumes = self._volumes[1:-1]
        coupling = -(cond[1:] + cond[:-1])
        film = self._film
        # Off-diagonals of the compound system of all rows; the first
        # k*n - 1 entries are those of the first k rows.
        lower = np.tile(self._lower, rows)[1:]
        upper = np.tile(self._upper, rows)[:-1]
        iterations = np.zeros(rows, dtype=int)
        active = np.arange(rows)
        for iteration in range(1, self.MAX_ITERATIONS + 1):
            sub = psi[active]
            n, p, dn, dp = self._carriers(sub[:, film],
                                          v_channel[active, None])
            rho = np.zeros_like(sub)
            rho[:, film] = Q * (p - n + self.stack.net_doping)
            drho = np.zeros_like(sub)
            drho[:, film] = Q * (dp - dn)

            # Residual F_i and tridiagonal Jacobian for interior nodes;
            # the Dirichlet rows keep F = 0 and a unit diagonal.
            flux = cond * (sub[:, 1:] - sub[:, :-1])
            f = np.zeros_like(sub)
            f[:, 1:-1] = flux[:, 1:] - flux[:, :-1] + rho[:, 1:-1] * volumes
            diag = np.ones_like(sub)
            diag[:, 1:-1] = coupling + drho[:, 1:-1] * volumes

            size = sub.size - 1
            delta = _stacked_tridiagonal_solve(lower[:size], diag,
                                               upper[:size], -f)
            sub += np.minimum(np.maximum(delta, -self.MAX_UPDATE),
                              self.MAX_UPDATE)
            psi[active] = sub
            residual = np.max(np.abs(delta), axis=1)
            done = residual < self.TOLERANCE
            iterations[active[done]] = iteration
            active = active[~done]
            if not active.size:
                break
        else:
            row = active[0]
            raise ConvergenceError(
                f"Poisson1D failed at v_gate={v_gate[row]:.3f} V, "
                f"v_channel={v_channel[row]:.3f} V",
                iterations=self.MAX_ITERATIONS,
                residual=float(residual[~done][0]))

        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter("tcad.poisson1d.solves").inc(rows)
            tracer.counter("tcad.poisson1d.iterations").inc(
                int(iterations.sum()))
            histogram = tracer.histogram(
                "tcad.poisson1d.iterations_per_solve")
            for count in iterations.tolist():
                histogram.observe(count)
            tracer.gauge("tcad.poisson1d.last_residual").set(
                float(residual.max()))
        return self._package(psi, v_channel, iterations, scalar)

    def _carriers(self, psi: np.ndarray, v_channel: ArrayLike):
        """Densities and their derivatives w.r.t. psi."""
        n = boltzmann_n(psi, v_channel, self.ni, self.vt)
        p = boltzmann_p(psi, 0.0, self.ni, self.vt)
        if self.use_fermi_correction:
            n = n * fermi_correction(n, SILICON.nc)
            p = p * fermi_correction(p, SILICON.nv)
        dn = n / self.vt
        dp = -p / self.vt
        return n, p, dn, dp

    def _package(self, psi: np.ndarray, v_channel: np.ndarray,
                 iterations: np.ndarray, scalar: bool) -> PoissonSolution:
        n, _, _, _ = self._carriers(psi, v_channel[:, None])
        # Row by row, so each charge is the 1-D pairwise sum a one-row
        # solve takes, whatever the memory layout of psi (an axis-1
        # reduction of a column-major stack accumulates in another order).
        q_inv = Q * np.array([np.sum(row) for row in
                              n * self._volumes * self._film_mask])
        # cond[0] * (psi0 - psi1) is eps_ox * E_ox = displacement [C/m^2].
        q_gate = self._cond[0] * (psi[:, 0] - psi[:, 1])
        surface = psi[:, self._surface_index]
        if scalar:
            return PoissonSolution(
                psi=psi[0], x=self.mesh.x.copy(), q_inv=float(q_inv[0]),
                q_gate=float(q_gate[0]), surface_potential=float(surface[0]),
                iterations=int(iterations[0]))
        return PoissonSolution(
            psi=psi, x=self.mesh.x.copy(), q_inv=q_inv, q_gate=q_gate,
            surface_potential=surface, iterations=iterations)

    def inversion_charge(self, v_gate: float, v_channel: float = 0.0,
                         psi0: Optional[np.ndarray] = None) -> float:
        """Sheet inversion charge [C/m^2] at a bias point."""
        return self.solve(v_gate, v_channel, psi0=psi0).q_inv

    def gate_capacitance(self, v_gate: ArrayLike,
                         delta: float = 2e-3) -> ArrayLike:
        """Small-signal gate capacitance per area [F/m^2] by central
        differencing of the gate charge at V_channel = 0; an array of
        ``v_gate`` solves all its +/-delta points as one stack."""
        v_gate = np.asarray(v_gate, dtype=float)
        q_gate = self.solve(
            np.stack([v_gate + delta, v_gate - delta]).ravel()).q_gate
        hi, lo = q_gate.reshape((2,) + v_gate.shape)
        return (hi - lo) / (2.0 * delta)

    def oxide_capacitance(self) -> float:
        """Front-oxide parallel-plate capacitance per area [F/m^2]."""
        return SILICON_DIOXIDE.permittivity / self.stack.t_ox
