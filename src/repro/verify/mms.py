"""Method-of-manufactured-solutions and convergence-order estimators.

Golden files pin *values*; this module pins *numerics*: each solver is
run against a problem with a known (manufactured or analytic) solution
on a ladder of grid/timestep resolutions, and the observed convergence
order — the log-ratio slope of the error between successive
refinements — must land inside the declared bounds.

A silent discretisation regression (a lost factor of two in a flux, a
boundary row stamped wrong, an integrator falling back to first order)
moves the observed order far outside its window even when the absolute
numbers still look plausible.

Checks
------
* ``poisson1d`` — Richardson self-convergence of the gate-stack solve
  (no closed form exists for the nonlinear carrier terms).
* ``spice.transient`` — RC response to a voltage ramp against the
  closed-form solution; trapezoidal must be ~2nd order and backward
  Euler ~1st.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple


@dataclass
class ConvergenceResult:
    """Observed convergence behaviour of one solver check.

    Attributes
    ----------
    name:
        Check identifier.
    resolutions:
        Grid sizes / step counts, coarsest first.
    errors:
        Error against the exact (or reference) solution per resolution.
    observed:
        Estimated convergence order (from the finest pair).
    bounds:
        Inclusive (lo, hi) window the order must land in.
    """

    name: str
    resolutions: List[float]
    errors: List[float]
    observed: float
    bounds: Tuple[float, float]
    detail: str = ""
    pairwise: List[float] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when the observed order is inside the bounds."""
        lo, hi = self.bounds
        return lo <= self.observed <= hi

    def render(self) -> str:
        """One-line summary."""
        lo, hi = self.bounds
        return (f"{self.name}: observed order {self.observed:.2f} "
                f"(bounds [{lo:g}, {hi:g}]); errors "
                + " -> ".join(f"{e:.3e}" for e in self.errors))


def observed_order(errors: Sequence[float],
                   refinement: float = 2.0) -> List[float]:
    """Pairwise convergence orders from an error ladder.

    ``errors[i]`` is the error at resolution ``i``; each refinement
    multiplies the resolution by ``refinement``.  Exact-to-roundoff
    errors (0) yield ``inf`` for that pair.
    """
    orders: List[float] = []
    for coarse, fine in zip(errors, errors[1:]):
        if fine == 0.0:
            orders.append(float("inf"))
        elif coarse == 0.0:
            orders.append(0.0)
        else:
            orders.append(math.log(coarse / fine) /
                          math.log(refinement))
    return orders


def _result(name: str, resolutions: Sequence[float],
            errors: Sequence[float], bounds: Tuple[float, float],
            refinement: float = 2.0, detail: str = "",
            ) -> ConvergenceResult:
    pairwise = observed_order(errors, refinement)
    return ConvergenceResult(
        name=name, resolutions=list(resolutions), errors=list(errors),
        observed=pairwise[-1] if pairwise else float("nan"),
        bounds=bounds, detail=detail, pairwise=pairwise)


# ----------------------------------------------------------------------
# 1-D Poisson: Richardson self-convergence
# ----------------------------------------------------------------------
def poisson1d_convergence(v_gate: float = 0.6,
                          factors: Sequence[int] = (1, 2, 4, 8),
                          ) -> ConvergenceResult:
    """Grid self-convergence of the nonlinear gate-stack solve.

    No closed form exists with Boltzmann carriers, so the estimator is
    Richardson's: successive differences of the surface potential under
    uniform mesh refinement must shrink at the finite-volume scheme's
    order.

    The scheme is interface-limited to first order: the oxide/film
    interface node's charge is integrated over its whole control volume
    (including the charge-free oxide half-cell), an O(h) charge
    misattribution.  The declared bounds pin that behaviour — observed
    ~0.95 today; a future interface-aware quadrature may legitimately
    raise it towards 2, at which point the bounds (and every golden)
    get regenerated deliberately.
    """
    from repro.tcad.device import Polarity, design_for_variant
    from repro.tcad.poisson1d import Poisson1D, StackSpec
    from repro.geometry.transistor_layout import ChannelCount

    base = design_for_variant(ChannelCount.TRADITIONAL,
                              Polarity.NMOS).engine.poisson.stack
    values = []
    for factor in factors:
        stack = StackSpec(
            t_ox=base.t_ox, t_si=base.t_si, t_box=base.t_box,
            flatband=base.flatband, net_doping=base.net_doping,
            temperature=base.temperature,
            n_cells_ox=base.n_cells_ox * factor,
            n_cells_si=base.n_cells_si * factor,
            n_cells_box=base.n_cells_box * factor)
        values.append(Poisson1D(stack).solve(v_gate).surface_potential)
    errors = [abs(a - b) for a, b in zip(values, values[1:])]
    return _result("mms.poisson1d", list(factors)[:-1], errors,
                   bounds=(0.7, 2.5),
                   detail=f"surface potential at V_G={v_gate} V, "
                          f"Richardson differences (interface-limited "
                          f"first order, see docstring)")


# ----------------------------------------------------------------------
# SPICE transient: ramp-driven RC against the closed form
# ----------------------------------------------------------------------
def transient_order(method: str = "trap",
                    dts: Sequence[float] = (4e-11, 2e-11, 1e-11),
                    ) -> ConvergenceResult:
    """Timestep convergence of the transient integrator.

    An RC low-pass driven by a linear ramp has the closed form
    ``v(t) = a (t - tau + tau exp(-t/tau))``; the error at ``t_stop``
    under timestep halving gives the observed integration order
    (trapezoidal ~2, backward Euler ~1).
    """
    from repro.spice import Circuit, Resistor, pwl_source, transient
    from repro.spice.elements.capacitor import Capacitor
    r, c = 1e3, 1e-13
    tau = r * c
    t_stop = 1e-9
    rate = 1.0 / t_stop
    exact = rate * (t_stop - tau + tau * math.exp(-t_stop / tau))

    errors = []
    for dt in dts:
        circuit = Circuit()
        circuit.add(pwl_source("V1", "in", "0",
                               [(0.0, 0.0), (t_stop, 1.0)]))
        circuit.add(Resistor("R1", "in", "out", r))
        circuit.add(Capacitor("C1", "out", "0", c))
        result = transient(circuit, t_stop=t_stop, dt=dt,
                           method=method)
        errors.append(abs(float(result.waveform("out").v[-1]) - exact))
    bounds = (1.7, 2.4) if method == "trap" else (0.8, 1.4)
    return _result(f"mms.transient.{method}", list(dts), errors,
                   bounds=bounds,
                   detail=f"RC ramp response at t={t_stop:g}s vs "
                          f"closed form")


def all_mms_checks(fast: bool = False) -> List[ConvergenceResult]:
    """The full MMS/convergence battery.

    ``fast`` trims the resolution ladders for the fast suite; the
    declared bounds are shared.
    """
    if fast:
        return [
            poisson1d_convergence(factors=(1, 2, 4, 8)),
            transient_order("trap"),
            transient_order("be"),
        ]
    return [
        poisson1d_convergence(factors=(1, 2, 4, 8, 16)),
        transient_order("trap", dts=(8e-11, 4e-11, 2e-11, 1e-11)),
        transient_order("be", dts=(8e-11, 4e-11, 2e-11, 1e-11)),
    ]
