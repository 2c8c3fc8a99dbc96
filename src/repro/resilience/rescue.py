"""Parameter continuation: the shared rescue primitive of the solvers.

Nonlinear solves that fail cold often succeed when walked there: solve
an easy nearby problem first (zero bias, scaled-down sources, extra
gmin), then use each solution as the initial guess for a harder one.
:func:`continue_solve` implements the adaptive bisection version of
that walk; its one caller is Newton's source-continuation rung
(``spice.newton``), which ``solve_dc`` reaches through ``newton_solve``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConvergenceError

#: Default bound on bisection refinements before giving up.
MAX_SPLITS = 8


@dataclass(frozen=True)
class ContinuationResult:
    """Solution of the target problem plus how hard it was to reach."""

    solution: Any
    steps: int      # successful intermediate + final solves
    splits: int     # bisections forced by non-convergence

    @property
    def rescued(self) -> bool:
        """True when intermediate problems were needed (splits > 0)."""
        return self.splits > 0


def continue_solve(solve: Callable[[float, Any], Any], target: float,
                   start: float = 0.0, initial: Any = None,
                   max_splits: int = MAX_SPLITS) -> ContinuationResult:
    """Walk ``solve`` from ``start`` to ``target`` with adaptive steps.

    ``solve(value, warm)`` must solve the problem at parameter ``value``
    starting from ``warm`` (a previous solution, or ``initial`` for the
    first call) and raise :class:`ConvergenceError` on failure.  The
    walk first attempts ``target`` directly; every failure bisects the
    remaining interval (up to ``max_splits`` times total), every success
    advances the warm start.  The final :class:`ConvergenceError` is
    re-raised when the split budget runs out.
    """
    goals = [target]
    value = start
    warm = initial
    steps = splits = 0
    while goals:
        goal = goals[-1]
        try:
            warm = solve(goal, warm)
        except ConvergenceError:
            if splits >= max_splits:
                raise
            splits += 1
            goals.append(value + (goal - value) / 2.0)
            continue
        value = goal
        goals.pop()
        steps += 1
    return ContinuationResult(solution=warm, steps=steps, splits=splits)
