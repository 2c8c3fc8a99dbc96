"""The 1.1 call shapes are gone; the keyword-only shapes stay silent.

Positional arguments, ``cell_names=`` and ``max_workers=`` were
deprecated in 1.2 and are now plain ``TypeError`` s from the keyword-only
signatures.  The suite-wide ``filterwarnings = error::DeprecationWarning``
turns any DeprecationWarning into a failure.  Cheap argument-plumbing
paths only: nothing here runs a simulation.
"""

import pytest

import repro
from repro.engine import default_engine
from repro.ppa.runner import PpaRunner


def _stop_engine_runs(monkeypatch):
    """Abort any engine run before simulation work starts."""

    def fake_run(self, tasks):
        raise RuntimeError("stop before simulating")

    monkeypatch.setattr(repro.Engine, "run", fake_run)


ENTRY_POINTS = {
    "quick_ppa": repro.quick_ppa,
    "run_full_flow": repro.run_full_flow,
    "run_extractions": repro.run_extractions,
    "PpaRunner": lambda *args, **kwargs: PpaRunner(
        *args, engine=default_engine(), **kwargs),
    "PpaRunner.sweep": lambda *args, **kwargs: PpaRunner(
        engine=default_engine()).sweep(*args, **kwargs),
    "Engine": repro.Engine,
}

LEGACY_SHAPES = {
    "positional": ((["INV1X1"],), {}),
    "cell_names": ((), {"cell_names": ["INV1X1"]}),
    "max_workers": ((), {"max_workers": 1}),
}


@pytest.mark.parametrize("shape", sorted(LEGACY_SHAPES))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_legacy_call_shapes_raise_type_error(entry, shape, monkeypatch):
    _stop_engine_runs(monkeypatch)
    args, kwargs = LEGACY_SHAPES[shape]
    with pytest.raises(TypeError,
                       match="positional|unexpected keyword"):
        ENTRY_POINTS[entry](*args, **kwargs)


def test_ppa_runner_requires_an_engine():
    with pytest.raises(TypeError, match="engine"):
        PpaRunner()


def test_new_keyword_shapes_do_not_warn(monkeypatch, recwarn):
    _stop_engine_runs(monkeypatch)
    with pytest.raises(RuntimeError, match="stop before"):
        repro.quick_ppa(cells=["INV1X1"])
    with pytest.raises(RuntimeError, match="stop before"):
        repro.run_full_flow(cells=["INV1X1"], engine=default_engine())
    with pytest.raises(RuntimeError, match="stop before"):
        repro.run_extractions(engine=default_engine())
    runner = PpaRunner(engine=default_engine())
    with pytest.raises(RuntimeError, match="stop before"):
        runner.sweep(cells=["INV1X1"])
    assert not [w for w in recwarn
                if issubclass(w.category, DeprecationWarning)]


def test_backend_env_selects_backend(monkeypatch, recwarn):
    from repro.engine import SerialBackend
    monkeypatch.setenv("REPRO_BACKEND", "serial")
    engine = repro.Engine(use_disk=False)
    assert isinstance(engine.backend, SerialBackend)
    assert not [w for w in recwarn
                if issubclass(w.category, DeprecationWarning)]


def test_version_bumped():
    assert repro.__version__ == "1.21.0"
