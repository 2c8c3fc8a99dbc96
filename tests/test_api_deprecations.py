"""The 1.1 call shapes are gone; the keyword-only shapes stay silent.

Positional arguments, ``cell_names=`` and ``max_workers=`` were
deprecated in 1.2 and are now plain ``TypeError`` s from the keyword-only
signatures.  Since 1.23 the engine is the one place for run settings,
so ``observe=`` on the entry points and ``cache_dir=`` /
``max_workers=`` / ``backend=`` / ``observe=`` on the durable runs are
``TypeError`` s as well; so is ``deadline=`` on ``Engine.run`` and the
durable runs (arm the cancellation token's deadline instead).  The
suite-wide ``filterwarnings =
error::DeprecationWarning`` turns any DeprecationWarning into a
failure.  Cheap argument-plumbing paths only: nothing here runs a
simulation.
"""

import pytest

import repro
from repro.engine import default_engine
from repro.flows import resume_run, run_durable_flow
from repro.ppa.runner import PpaRunner


def _stop_engine_runs(monkeypatch):
    """Abort any engine run before simulation work starts."""

    # Takes any keyword, so a setting that an entry point still accepts
    # and forwards to ``Engine.run`` is not mistaken for a removed one.
    def fake_run(self, tasks, **kwargs):
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

#: ``Engine.run`` itself, before a test stubs it out.
ENGINE_RUN = repro.Engine.run

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


#: Run settings that belong to the engine (``Engine(backend=, cache_dir=,
#: observe=)``), spelled on an entry point.
DURABLE_ENTRY_POINTS = {
    "run_durable_flow": run_durable_flow,
    "resume_run": lambda **kwargs: resume_run("r", **kwargs),
}
REMOVED_RUN_SETTINGS = [
    pytest.param(ENTRY_POINTS[name], {"observe": True},
                 id=f"{name}-observe")
    for name in ("quick_ppa", "run_full_flow", "run_extractions",
                 "PpaRunner")
] + [
    pytest.param(DURABLE_ENTRY_POINTS[name], {setting: value},
                 id=f"{name}-{setting}")
    for name in sorted(DURABLE_ENTRY_POINTS)
    for setting, value in (("cache_dir", "cache"), ("max_workers", 1),
                           ("backend", "serial"), ("observe", True),
                           ("deadline", 1.0))
] + [
    pytest.param(lambda **kwargs: ENGINE_RUN(default_engine(), [],
                                             **kwargs),
                 {"deadline": 1.0}, id="Engine.run-deadline"),
]


@pytest.mark.parametrize("entry,kwargs", REMOVED_RUN_SETTINGS)
def test_removed_run_settings_raise_type_error(entry, kwargs, monkeypatch):
    _stop_engine_runs(monkeypatch)
    with pytest.raises(TypeError, match="unexpected keyword"):
        entry(**kwargs)


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
    assert repro.__version__ == "1.25.0"
