"""Parity matrix: comparison semantics and a real reduced run."""

from __future__ import annotations

import pytest

from repro.verify.parity import (
    FAST_MODES,
    PARITY_MATRIX,
    ParityCell,
    _compare,
    run_parity_matrix,
)
from repro.verify.report import STATUS_FAIL, STATUS_PASS

pytestmark = pytest.mark.parity


# ----------------------------------------------------------------------
# matrix declaration
# ----------------------------------------------------------------------
def test_matrix_covers_every_mechanism():
    names = [c.name for c in PARITY_MATRIX]
    assert names[0] == "serial-cold"
    assert len(names) == len(set(names))
    assert any(c.backend.startswith("pool") for c in PARITY_MATRIX)
    assert any(c.warm_from for c in PARITY_MATRIX)
    assert any(c.traced for c in PARITY_MATRIX)
    assert any(c.faults and c.comparison == "bitwise"
               for c in PARITY_MATRIX)
    assert any(c.faults and c.comparison == "tolerance"
               for c in PARITY_MATRIX)
    # Warm cells must name a cell that exists.
    for cell in PARITY_MATRIX:
        if cell.warm_from:
            assert cell.warm_from in names
    assert set(FAST_MODES) <= set(names)
    # Every shipped execution backend appears as an explicit cell: a
    # warm-worker pool pair (cold + replay) next to the serial cells,
    # and two invocations sharing one cache run as a chaos cell.
    pool_cells = [c for c in PARITY_MATRIX
                  if c.backend and c.backend.startswith("pool")]
    assert any(not c.warm_from for c in pool_cells)
    assert any(c.warm_from for c in pool_cells)
    assert any(c.chaos == "concurrent" for c in PARITY_MATRIX)


def test_unknown_mode_rejected():
    from repro.errors import ReproError
    with pytest.raises(ReproError, match="unknown parity modes"):
        run_parity_matrix(modes=("no-such-mode",))


# ----------------------------------------------------------------------
# comparison semantics
# ----------------------------------------------------------------------
_BITWISE = ParityCell(name="x", description="x")
_TOL = ParityCell(name="x", description="x", comparison="tolerance",
                  tolerance="calibrated")


def test_bitwise_comparison_flags_any_drift():
    base = {"a": 1.0, "b": 2.0}
    ok, note = _compare(_BITWISE, base, {"a": 1.0, "b": 2.0})
    assert ok and "bit-identical" in note
    ok, note = _compare(_BITWISE, base,
                        {"a": 1.0, "b": 2.0 * (1 + 1e-15)})
    assert not ok and "b" in note


def test_tolerance_comparison_accepts_documented_drift():
    base = {"a": 1.0, "b": 2.0}
    ok, note = _compare(_TOL, base, {"a": 1.0 + 5e-4, "b": 2.0})
    assert ok and "calibrated" in note
    ok, note = _compare(_TOL, base, {"a": 1.0 + 5e-3, "b": 2.0})
    assert not ok and "a" in note


def test_comparison_requires_identical_keys():
    ok, note = _compare(_BITWISE, {"a": 1.0}, {"b": 1.0})
    assert not ok and "key mismatch" in note


# ----------------------------------------------------------------------
# real reduced run (cold + warm replay)
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.engine
def test_cold_warm_parity_on_reduced_flow(tmp_path):
    results = run_parity_matrix(
        modes=("serial-cold", "serial-warm"), workdir=tmp_path)
    by_name = {r.name: r for r in results}
    assert set(by_name) == {"parity.serial-cold",
                            "parity.serial-warm"}
    failed = [r for r in results if r.status == STATUS_FAIL]
    assert not failed, "\n".join(f"{r.name}: {r.detail}"
                                 for r in failed)
    warm = by_name["parity.serial-warm"]
    assert warm.status == STATUS_PASS
    assert "bit-identical" in warm.detail
    # The warm replay must actually have been warm.
    assert warm.wall_time_s < \
        by_name["parity.serial-cold"].wall_time_s / 2
