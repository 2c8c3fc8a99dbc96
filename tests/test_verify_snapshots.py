"""Committed goldens vs fresh measurements (the ``golden`` marker)."""

from __future__ import annotations

import pytest

from repro.verify.snapshots import (
    PIPELINE_GOLDENS,
    SOLVER_GOLDENS,
)

pytestmark = pytest.mark.golden


@pytest.mark.parametrize("name", sorted(SOLVER_GOLDENS))
def test_solver_golden(name, check_golden):
    builder, tolerance = SOLVER_GOLDENS[name]
    check_golden(name, builder(), default_tolerance=tolerance,
                 description=f"verify golden {name}")


@pytest.mark.slow
@pytest.mark.engine
@pytest.mark.parametrize("name", sorted(PIPELINE_GOLDENS))
def test_pipeline_golden(name, check_golden):
    builder, tolerance = PIPELINE_GOLDENS[name]
    check_golden(name, builder(), default_tolerance=tolerance,
                 description=f"verify golden {name}")


def test_golden_detects_mobility_perturbation(monkeypatch):
    """+1% low-field mobility U0 must trip the compact_model golden
    (sensitivity check: its tight class sees a physics drift an eyeball
    comparison would miss; a widened class would let it through)."""
    import repro.compact.parameters as parameters
    from repro.verify.goldens import GoldenStore
    from repro.verify.snapshots import compact_model_snapshot
    original = parameters.default_parameters

    def perturbed():
        params = original()
        return params.updated({"U0": params["U0"] * 1.01})

    monkeypatch.setattr(parameters, "default_parameters", perturbed)
    diff = GoldenStore().diff("compact_model", compact_model_snapshot())
    assert not diff.passed
    assert any(q.name.startswith("ids@vds=") for q in diff.failures)


def test_registries_do_not_overlap():
    assert not set(SOLVER_GOLDENS) & set(PIPELINE_GOLDENS)


def test_snapshots_are_flat_json_friendly_dicts():
    from repro.verify.goldens import _jsonable
    from repro.verify.snapshots import poisson1d_snapshot
    snapshot = poisson1d_snapshot()
    assert snapshot and isinstance(snapshot, dict)
    for key, value in snapshot.items():
        assert isinstance(key, str)
        _jsonable(value)  # raises on exotic types
