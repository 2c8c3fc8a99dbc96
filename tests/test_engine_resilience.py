"""The engine's failure domain: retries, on_error="continue", worker
crash recovery, task timeouts, same-key failure propagation and
content-addressed resume."""

import pytest

from repro.engine import (
    Engine,
    Task,
    register_stage,
    unregister_stage,
)
from repro.errors import EngineRunError, InjectedFault, ReproError
from repro.resilience import FaultInjector, RetryPolicy, clear_faults, install


def _add(payload, deps):
    return payload["value"] + sum(deps.values())


def _fail(payload, deps):
    raise RuntimeError("boom")


def _nap(payload, deps):
    import time
    time.sleep(payload["seconds"])
    return payload["seconds"]


@pytest.fixture(autouse=True)
def _stages(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_TASK_RETRIES", raising=False)
    monkeypatch.delenv("REPRO_TASK_TIMEOUT", raising=False)
    clear_faults()
    register_stage("toy_add", compute=_add,
                   encode=lambda a: a, decode=lambda d: d, replace=True)
    register_stage("toy_fail", compute=_fail, replace=True)
    register_stage("toy_nap", compute=_nap, replace=True)
    yield
    clear_faults()
    unregister_stage("toy_add")
    unregister_stage("toy_fail")
    unregister_stage("toy_nap")


def _graph():
    return [
        Task(id="a", stage="toy_add", payload={"value": 1}),
        Task(id="b", stage="toy_fail", payload=None),
        Task(id="c", stage="toy_add", payload={"value": 10}, deps=("b",)),
        Task(id="d", stage="toy_add", payload={"value": 100}),
    ]


# ----------------------------------------------------------------------
# on_error="continue"
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["serial", "pool:3"])
def test_continue_completes_independent_subgraphs(tmp_path, backend):
    engine = Engine(backend=backend, cache_dir=tmp_path,
                    on_error="continue")
    run = engine.run(_graph())
    assert run["a"] == 1 and run["d"] == 100
    assert not run.ok
    assert set(run.failed) == {"b"}
    assert set(run.skipped) == {"c"}
    assert run.failed["b"].error_type == "RuntimeError"
    assert run.failed["b"].message == "boom"
    assert "boom" in run.failed["b"].traceback
    assert run.skipped["c"].upstream == "b"
    with pytest.raises(EngineRunError, match="1 task.s. failed, 1 skipped"):
        run.raise_for_failures()
    assert "toy_fail" in str(run.error)


def test_raise_mode_still_propagates_original_error(tmp_path):
    engine = Engine(backend="serial", cache_dir=tmp_path)   # default: raise
    with pytest.raises(RuntimeError, match="boom"):
        engine.run(_graph())


def test_per_run_on_error_override(tmp_path):
    engine = Engine(backend="serial", cache_dir=tmp_path, on_error="continue")
    with pytest.raises(RuntimeError, match="boom"):
        engine.run(_graph(), on_error="raise")
    run = engine.run(_graph())
    assert not run.ok


def test_invalid_on_error_rejected(tmp_path):
    with pytest.raises(ReproError, match="on_error"):
        Engine(backend="serial", cache_dir=tmp_path, on_error="explode")
    engine = Engine(backend="serial", cache_dir=tmp_path)
    with pytest.raises(ReproError, match="on_error"):
        engine.run([], on_error="explode")


def test_manifest_render_shows_failures(tmp_path):
    engine = Engine(backend="serial", cache_dir=tmp_path, on_error="continue")
    run = engine.run(_graph())
    text = run.manifest.render()
    assert "1 failed / 1 skipped" in text
    assert "RuntimeError: boom" in text
    assert "dependency b failed" in text


def test_manifest_failure_roundtrip(tmp_path):
    from repro.engine import RunManifest
    engine = Engine(backend="serial", cache_dir=tmp_path, on_error="continue")
    run = engine.run(_graph())
    restored = RunManifest.from_dict(run.manifest.to_dict())
    assert [f.task_id for f in restored.failed()] == ["b"]
    assert [f.task_id for f in restored.skipped()] == ["c"]


# ----------------------------------------------------------------------
# retries
# ----------------------------------------------------------------------
def test_serial_retry_succeeds_after_transient_faults(tmp_path):
    install(FaultInjector.parse("stage_exc:toy_add:first=2"))
    engine = Engine(backend="serial", cache_dir=tmp_path,
                    retry_policy=RetryPolicy(retries=3, backoff=0.0))
    run = engine.run([Task(id="a", stage="toy_add", payload={"value": 5})])
    assert run["a"] == 5
    assert run.manifest.records[0].attempts == 3
    assert run.manifest.retries() == 2


def test_serial_retries_exhausted_records_failure(tmp_path):
    install(FaultInjector.parse("stage_exc:toy_add"))
    engine = Engine(backend="serial", cache_dir=tmp_path,
                    retry_policy=RetryPolicy(retries=1, backoff=0.0),
                    on_error="continue")
    run = engine.run([Task(id="a", stage="toy_add", payload={"value": 5})])
    assert run.failed["a"].error_type == "InjectedFault"
    assert run.failed["a"].attempts == 2


def test_parallel_retry_succeeds_after_transient_faults(tmp_path):
    install(FaultInjector.parse("stage_exc:toy_add:first=1"))
    engine = Engine(backend="pool:2", cache_dir=tmp_path,
                    retry_policy=RetryPolicy(retries=2, backoff=0.0))
    run = engine.run([Task(id="a", stage="toy_add", payload={"value": 1}),
                      Task(id="b", stage="toy_add", payload={"value": 2})])
    assert run["a"] == 1 and run["b"] == 2
    assert run.manifest.retries() == 1


def test_env_retries_are_picked_up(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TASK_RETRIES", "4")
    engine = Engine(backend="serial", cache_dir=tmp_path)
    assert engine.retry_policy.retries == 4


# ----------------------------------------------------------------------
# same-key duplicates must share the failure, not deadlock
# ----------------------------------------------------------------------
def test_same_key_failure_propagates_to_parked_duplicate(tmp_path):
    engine = Engine(backend="pool:2", cache_dir=tmp_path, on_error="continue")
    run = engine.run([Task(id="x1", stage="toy_fail", payload=None),
                      Task(id="x2", stage="toy_fail", payload=None),
                      Task(id="ok", stage="toy_add", payload={"value": 7})])
    assert run["ok"] == 7
    assert set(run.failed) == {"x1", "x2"}


def test_same_key_failure_propagates_serially(tmp_path):
    engine = Engine(backend="serial", cache_dir=tmp_path, on_error="continue")
    run = engine.run([Task(id="x1", stage="toy_fail", payload=None),
                      Task(id="x2", stage="toy_fail", payload=None)])
    assert set(run.failed) == {"x1", "x2"}


# ----------------------------------------------------------------------
# worker crashes (BrokenProcessPool) and timeouts
# ----------------------------------------------------------------------
def test_worker_kill_recovers_with_identical_artifacts(tmp_path):
    tasks = [Task(id=f"t{i}", stage="toy_add", payload={"value": i})
             for i in range(5)]
    reference = Engine(backend="pool:3", cache_dir=tmp_path / "ref").run(tasks)

    install(FaultInjector.parse("worker_kill:toy_add:n=1"))
    engine = Engine(backend="pool:3", cache_dir=tmp_path / "faulty")
    run = engine.run(tasks)
    clear_faults()

    assert run.ok
    assert run.artifacts == reference.artifacts
    assert run.manifest.pool_rebuilds >= 1
    # The content addresses agree too: the resubmitted artefacts are
    # the same bits a fault-free run produces.
    ref_keys = {r.task_id: r.key for r in reference.manifest.records}
    run_keys = {r.task_id: r.key for r in run.manifest.records}
    assert ref_keys == run_keys


def test_repeated_worker_kills_exhaust_crash_budget(tmp_path):
    install(FaultInjector.parse("worker_kill:toy_fail:first=99"))
    engine = Engine(backend="pool:2", cache_dir=tmp_path, on_error="continue")
    # Two same-key victims: one is in flight and keeps killing its
    # worker, the other stays parked behind the duplicate key — when
    # the crash budget runs out both must fail (no deadlock).
    run = engine.run([Task(id="v1", stage="toy_fail", payload=None),
                      Task(id="v2", stage="toy_fail", payload=None)])
    assert set(run.failed) == {"v1", "v2"}
    assert "WorkerCrashError" in {f.error_type
                                  for f in run.manifest.failed()}
    assert run.manifest.pool_rebuilds >= 2


def test_task_timeout_fails_and_spares_the_rest(tmp_path):
    engine = Engine(backend="pool:2", cache_dir=tmp_path, on_error="continue",
                    retry_policy=RetryPolicy(retries=0, timeout=0.4))
    run = engine.run([
        Task(id="slow", stage="toy_nap", payload={"seconds": 30.0}),
        Task(id="quick", stage="toy_add", payload={"value": 3}),
    ])
    assert run["quick"] == 3
    assert run.failed["slow"].error_type == "TaskTimeoutError"
    assert run.manifest.pool_rebuilds >= 1


def test_task_timeout_burns_retry_attempts(tmp_path):
    engine = Engine(backend="pool:2", cache_dir=tmp_path, on_error="continue",
                    retry_policy=RetryPolicy(retries=1, backoff=0.01,
                                             timeout=0.3))
    run = engine.run([
        Task(id="slow", stage="toy_nap", payload={"seconds": 30.0}),
        Task(id="quick", stage="toy_add", payload={"value": 3}),
    ])
    assert run.failed["slow"].attempts == 2
    assert run.manifest.pool_rebuilds >= 2


# ----------------------------------------------------------------------
# content-addressed resume
# ----------------------------------------------------------------------
def test_rerun_recomputes_only_the_failed_subgraph(tmp_path):
    tasks = [
        Task(id="a", stage="toy_add", payload={"value": 1}),
        Task(id="b", stage="toy_add", payload={"value": 10}, deps=("a",)),
        Task(id="c", stage="toy_add", payload={"value": 100}),
    ]
    reference = Engine(backend="serial", cache_dir=tmp_path / "ref").run(tasks)

    # Serial draws happen in topological order, so first=1 fails "a"
    # (and skips its dependent "b") while "c" completes.
    install(FaultInjector.parse("stage_exc:toy_add:first=1"))
    engine = Engine(backend="serial", cache_dir=tmp_path / "cache",
                    on_error="continue")
    first = engine.run(tasks)
    clear_faults()
    assert set(first.failed) == {"a"} and set(first.skipped) == {"b"}
    assert first["c"] == 100

    second = engine.run(tasks)
    assert second.ok
    assert second.artifacts == reference.artifacts
    by_id = {r.task_id: r for r in second.manifest.records}
    # c was cached by the degraded run; only the failed subgraph computes.
    assert by_id["c"].cache == "memory"
    assert by_id["a"].cache == "miss"
    assert by_id["b"].cache == "miss"
