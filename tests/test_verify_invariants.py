"""Conservation/monotonicity invariants of the physics stack."""

from __future__ import annotations

import pytest

from repro.verify.invariants import (
    INVARIANT_CHECKS,
    all_invariant_checks,
    compact_charge_conservation,
    compact_id_monotone_in_vgs,
    cv_bounded_by_oxide,
    tcad_id_monotone_in_vgs,
)
from repro.verify.report import STATUS_PASS


def test_compact_id_monotone_in_vgs():
    result = compact_id_monotone_in_vgs()
    assert result.status == STATUS_PASS, result.detail


def test_compact_charge_conservation():
    result = compact_charge_conservation()
    assert result.status == STATUS_PASS, result.detail


def test_cv_bounded_by_oxide():
    result = cv_bounded_by_oxide()
    assert result.status == STATUS_PASS, result.detail
    assert all(0.0 < r <= 1.0 + 1e-9 for r in result.measured)


@pytest.mark.slow
def test_tcad_id_monotone_in_vgs():
    result = tcad_id_monotone_in_vgs()
    assert result.status == STATUS_PASS, result.detail


@pytest.mark.slow
def test_full_battery_passes_and_is_timed():
    results = all_invariant_checks()
    assert len(results) == len(INVARIANT_CHECKS)
    assert all(r.status == STATUS_PASS for r in results), \
        "\n".join(f"{r.name}: {r.detail}" for r in results
                  if r.status != STATUS_PASS)
    assert all(r.wall_time_s >= 0.0 for r in results)
