"""Convergence-order estimators and the MMS battery."""

from __future__ import annotations

import math

import pytest

from repro.verify.mms import (
    ConvergenceResult,
    observed_order,
    poisson1d_convergence,
    transient_order,
)

pytestmark = pytest.mark.mms


# ----------------------------------------------------------------------
# the estimator itself
# ----------------------------------------------------------------------
def test_observed_order_recovers_known_slopes():
    # Second-order ladder: error / 4 per refinement.
    second = [1.0, 0.25, 0.0625]
    assert observed_order(second) == pytest.approx([2.0, 2.0])
    # First-order ladder with refinement factor 3.
    first = [0.9, 0.3, 0.1]
    assert observed_order(first, refinement=3.0) == \
        pytest.approx([1.0, 1.0])


def test_observed_order_handles_exact_solutions():
    assert observed_order([1e-3, 0.0]) == [float("inf")]
    assert observed_order([0.0, 1e-3]) == [0.0]


def test_convergence_result_verdict():
    good = ConvergenceResult(name="x", resolutions=[1, 2],
                             errors=[1.0, 0.25], observed=2.0,
                             bounds=(1.8, 2.2))
    assert good.passed
    bad = ConvergenceResult(name="x", resolutions=[1, 2],
                            errors=[1.0, 0.5], observed=1.0,
                            bounds=(1.8, 2.2))
    assert not bad.passed
    assert "1.00" in bad.render()


# ----------------------------------------------------------------------
# the physics ladders (real solves)
# ----------------------------------------------------------------------
def test_poisson1d_richardson_order_pinned():
    result = poisson1d_convergence(factors=(1, 2, 4, 8))
    assert result.passed, result.render()
    # Interface-limited first order (documented in the docstring):
    # a jump to clean second order means the interface quadrature
    # changed and every golden needs deliberate regeneration.
    assert result.observed < 1.8


def test_transient_trapezoidal_is_second_order():
    result = transient_order("trap")
    assert result.passed, result.render()


@pytest.mark.slow
def test_transient_backward_euler_is_first_order():
    result = transient_order("be")
    assert result.passed, result.render()
    # BE must be distinctly *below* second order — if it matched trap
    # the method switch is being ignored.
    assert result.observed < 1.6


@pytest.mark.slow
def test_full_ladders_agree_with_fast_ones():
    from repro.verify.mms import all_mms_checks
    fast = {r.name: r for r in all_mms_checks(fast=True)}
    full = {r.name: r for r in all_mms_checks(fast=False)}
    assert set(fast) == set(full)
    for name, result in full.items():
        assert result.passed, result.render()
        if math.isfinite(result.observed) and \
                math.isfinite(fast[name].observed):
            assert result.observed == pytest.approx(
                fast[name].observed, abs=0.6)
