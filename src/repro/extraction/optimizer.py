"""Bounded least-squares wrapper used by every extraction stage.

Parameters are normalised to [0, 1] against their spec bounds before the
scipy trust-region-reflective solve; this keeps the Jacobian well scaled
even though the raw parameters span fifteen orders of magnitude
(CDSC ~ 1e-4 F/m^2 vs UB ~ 1e-18 m^2/V^2).

Residuals are evaluated over parameter *rows*: a :class:`RowResidual`
maps R parameter mappings to an (R, m) matrix in one call, so a stage
makes one compact-model call for all R.  The solver's own evaluations
are single rows.  Its Jacobian is a 2-point finite difference whose k
step points run, with x itself, as one (k+1)-row batch.  The steps
follow scipy's ``'2-point'`` rule (relative step 1e-4, bounds [0, 1]):
the same step sizes, the same flip of a step that would leave the box
and the same arithmetic and memory layout of J, so the fit takes
exactly the path of scipy's built-in ``'2-point'`` Jacobian.  The
tests pin that rule against scipy's ``approx_derivative`` bit for bit.
A plain ``residual_fn(values) -> array`` is lifted to rows by a loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np
from scipy.optimize import least_squares

from repro.errors import ExtractionError
from repro.compact.parameters import PARAMETER_SPECS, ParameterSet
from repro.observe import EVALUATION_BUCKETS, get_tracer

ResidualFn = Callable[[Dict[str, float]], np.ndarray]
RowsFn = Callable[[Sequence[Dict[str, float]]], np.ndarray]

#: Relative finite-difference step of the Jacobian (scipy ``rel_step``).
JACOBIAN_REL_STEP = 1e-4

#: scipy's fallback relative step for '2-point' differences of float64.
_FALLBACK_REL_STEP = np.finfo(np.float64).eps ** 0.5


@dataclass(frozen=True)
class RowResidual:
    """A residual over parameter rows: R value mappings -> (R, m) array.

    Calling it with one mapping evaluates that single row, so it also
    serves wherever a plain residual function does.
    """

    rows: RowsFn

    def __call__(self, values: Dict[str, float]) -> np.ndarray:
        return self.rows([values])[0]


def _lifted(residual_fn: ResidualFn) -> RowsFn:
    """A plain residual function evaluated row by row."""
    def rows(values: Sequence[Dict[str, float]]) -> np.ndarray:
        return np.array([np.atleast_1d(np.asarray(residual_fn(v),
                                                  dtype=float))
                         for v in values])
    return rows


def _bounds_for(names: List[str]) -> Tuple[np.ndarray, np.ndarray]:
    lower = np.array([PARAMETER_SPECS[n].lower for n in names])
    upper = np.array([PARAMETER_SPECS[n].upper for n in names])
    return lower, upper


class UnitBoxObjective:
    """``residual_fn`` of ``names``, normalised to the unit box.

    ``objective(x)`` is the residual vector at one normalised point and
    ``objective.jac(x)`` its 2-point finite-difference Jacobian.
    ``rows`` counts the residual rows evaluated, single and Jacobian
    rows alike; ``jacobians`` counts the Jacobians built.
    """

    def __init__(self, names: List[str], residual_fn: ResidualFn):
        self.names = list(names)
        self.lower, upper = _bounds_for(self.names)
        self.span = upper - self.lower
        self.bounds = (np.zeros(len(self.names)), np.ones(len(self.names)))
        self._rows = (residual_fn.rows
                      if isinstance(residual_fn, RowResidual)
                      else _lifted(residual_fn))
        self.rows = 0
        self.jacobians = 0

    def values(self, x: np.ndarray) -> np.ndarray:
        """Parameter values at normalised point(s) ``x`` (clipped)."""
        return self.lower + np.clip(x, 0.0, 1.0) * self.span

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        """Residual rows, shape (R, m), at R normalised points (R, k)."""
        self.rows += len(xs)
        residuals = self._rows([dict(zip(self.names, row))
                                for row in self.values(xs)])
        if not np.all(np.isfinite(residuals)):
            # Penalise non-finite model output instead of crashing TRF.
            residuals = np.nan_to_num(residuals, nan=1e3,
                                      posinf=1e3, neginf=-1e3)
        return residuals

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.evaluate(x[np.newaxis])[0]

    def jac(self, x: np.ndarray) -> np.ndarray:
        """2-point Jacobian at ``x``: one batch of x and its k steps.

        The steps are scipy's ``'2-point'`` rule restricted to the unit
        box: ``1e-4 * x``, ``sqrt(eps)`` where that step vanishes in
        floating point (x = 0), and flipped where it would pass 1.
        (With x in [0, 1] scipy's sign is +1, its ``max(1, |x|)`` is 1
        and a step of at most 1e-4 always fits the other way.)
        """
        if np.any((x < 0.0) | (x > 1.0)):
            raise ValueError("`x0` violates bound constraints.")
        self.jacobians += 1
        h = JACOBIAN_REL_STEP * x
        h = np.where((x + h) - x == 0, _FALLBACK_REL_STEP, h)
        h[x + h > 1.0] *= -1

        points = np.repeat(x[np.newaxis], len(x) + 1, axis=0)
        diagonal = np.arange(len(x))
        points[diagonal + 1, diagonal] = x + h
        residuals = self.evaluate(points)
        dx = (x + h) - x
        return ((residuals[1:] - residuals[0]) / dx[:, np.newaxis]).T


def fit_parameters(base: ParameterSet, names: List[str],
                   residual_fn: ResidualFn,
                   max_evaluations: int = 2000) -> Tuple[ParameterSet, float]:
    """Fit ``names`` starting from ``base`` to minimise ``residual_fn``.

    ``residual_fn`` is a :class:`RowResidual` or a plain function of one
    ``{name: value}`` mapping.  Returns the updated parameter set and the
    final residual RMS.
    """
    if not names:
        raise ExtractionError("no parameters to fit")
    unknown = [n for n in names if n not in PARAMETER_SPECS]
    if unknown:
        raise ExtractionError(f"unknown parameters: {unknown}")

    objective = UnitBoxObjective(names, residual_fn)
    x0 = (np.array([base[n] for n in names]) - objective.lower) / \
        objective.span
    x0 = np.clip(x0, 0.0, 1.0)

    tracer = get_tracer()
    with tracer.span("extraction.fit",
                     parameters=",".join(names)) as fit_span:
        result = least_squares(
            objective, x0, jac=objective.jac, bounds=objective.bounds,
            max_nfev=max_evaluations, xtol=1e-10, ftol=1e-10, gtol=1e-10)
        fitted = dict(zip(names, objective.values(result.x)))
        rms = (float(np.sqrt(np.mean(result.fun ** 2)))
               if result.fun.size else 0.0)
        if tracer.enabled:
            rows, jacobians = objective.rows, objective.jacobians
            fit_span.set(rows=rows, jacobians=jacobians, rms=rms)
            tracer.counter("extraction.optimizer.fits").inc()
            tracer.counter("extraction.optimizer.evaluations").inc(rows)
            tracer.counter("extraction.optimizer.jacobians").inc(jacobians)
            tracer.histogram("extraction.optimizer.evaluations_per_fit",
                             EVALUATION_BUCKETS).observe(rows)
    return base.updated(fitted), rms
