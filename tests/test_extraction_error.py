"""Error metrics."""

import numpy as np
import pytest

from repro.errors import ExtractionError
from repro.extraction.error import (
    ReferenceCurve,
    region_error_percent,
    relative_errors,
)


def test_perfect_fit_zero_error():
    ref = np.array([1.0, 2.0, 3.0])
    assert region_error_percent(ref, ref) == 0.0


def test_uniform_ten_percent_error():
    ref = np.array([1.0, 2.0, 3.0])
    sim = ref * 1.1
    assert region_error_percent(sim, ref) == pytest.approx(10.0, rel=1e-6)


def test_floor_prevents_blowup_at_zero():
    ref = np.array([0.0, 1.0])
    sim = np.array([0.01, 1.0])
    errors = relative_errors(sim, ref)
    # the zero point uses 2% of max as denominator: 0.01/0.02 = 0.5
    assert errors[0] == pytest.approx(0.5)


def test_relative_errors_shape_mismatch():
    with pytest.raises(ExtractionError):
        relative_errors(np.zeros(3), np.zeros(4))


def test_zero_reference_rejected():
    with pytest.raises(ExtractionError):
        relative_errors(np.ones(3), np.zeros(3))


def test_log_residuals_decades():
    res = ReferenceCurve(np.array([1e-8])).mixed(np.array([1e-6]), 1.0)
    assert res[1] == pytest.approx(2.0)


def test_log_residuals_floored():
    res = ReferenceCurve(np.array([1e-14])).mixed(np.array([0.0]), 1.0)
    assert np.isfinite(res[1])


def test_mixed_residuals_concatenates():
    ref = np.array([1.0, 2.0])
    sim = np.array([1.1, 2.2])
    res = ReferenceCurve(ref).mixed(sim, log_weight=0.5)
    assert res.size == 4


def test_mixed_residuals_weighting():
    ref = np.array([1.0])
    sim = np.array([10.0])
    res0 = ReferenceCurve(ref).mixed(sim, log_weight=0.0)
    res1 = ReferenceCurve(ref).mixed(sim, log_weight=1.0)
    assert res0[1] == 0.0
    assert res1[1] == pytest.approx(1.0)
