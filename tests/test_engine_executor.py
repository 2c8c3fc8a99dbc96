"""The task-graph executor: scheduling, content addressing, manifests."""

import pytest

from repro.engine import (
    Engine,
    SerialBackend,
    Task,
    default_engine,
    register_stage,
    reset_default_engine,
    resolve_worker_count,
    unregister_stage,
)
from repro.errors import ReproError


def _add(payload, deps):
    return payload["value"] + sum(deps.values())


def _fail(payload, deps):
    raise RuntimeError("boom")


@pytest.fixture(autouse=True)
def _toy_stages():
    register_stage("toy_add", compute=_add,
                   encode=lambda a: a, decode=lambda d: d, replace=True)
    register_stage("toy_fail", compute=_fail, replace=True)
    yield
    unregister_stage("toy_add")
    unregister_stage("toy_fail")


def _engine(tmp_path, workers=1):
    backend = "serial" if workers == 1 else f"pool:{workers}"
    return Engine(backend=backend, cache_dir=tmp_path)


def test_single_task(tmp_path):
    run = _engine(tmp_path).run(
        [Task(id="a", stage="toy_add", payload={"value": 2})])
    assert run["a"] == 2


def test_dependencies_feed_dependents(tmp_path):
    tasks = [
        Task(id="a", stage="toy_add", payload={"value": 1}),
        Task(id="b", stage="toy_add", payload={"value": 10}, deps=("a",)),
        Task(id="c", stage="toy_add", payload={"value": 100}, deps=("a", "b")),
    ]
    run = _engine(tmp_path).run(tasks)
    assert run["a"] == 1
    assert run["b"] == 11
    assert run["c"] == 112


def test_declaration_order_is_irrelevant(tmp_path):
    tasks = [
        Task(id="c", stage="toy_add", payload={"value": 100}, deps=("a", "b")),
        Task(id="b", stage="toy_add", payload={"value": 10}, deps=("a",)),
        Task(id="a", stage="toy_add", payload={"value": 1}),
    ]
    assert _engine(tmp_path).run(tasks)["c"] == 112


def test_cycle_detection(tmp_path):
    tasks = [
        Task(id="a", stage="toy_add", payload={"value": 1}, deps=("b",)),
        Task(id="b", stage="toy_add", payload={"value": 2}, deps=("a",)),
    ]
    with pytest.raises(ReproError, match="cycle"):
        _engine(tmp_path).run(tasks)


def test_unknown_dependency_rejected(tmp_path):
    with pytest.raises(ReproError, match="unknown dependency"):
        _engine(tmp_path).run(
            [Task(id="a", stage="toy_add", payload={"value": 1},
                  deps=("ghost",))])


def test_duplicate_task_id_rejected(tmp_path):
    tasks = [Task(id="a", stage="toy_add", payload={"value": 1}),
             Task(id="a", stage="toy_add", payload={"value": 2})]
    with pytest.raises(ReproError, match="duplicate"):
        _engine(tmp_path).run(tasks)


def test_unknown_stage_rejected(tmp_path):
    with pytest.raises(ReproError, match="unknown engine stage"):
        _engine(tmp_path).run([Task(id="a", stage="nope", payload=None)])


def test_compute_errors_propagate(tmp_path):
    with pytest.raises(RuntimeError, match="boom"):
        _engine(tmp_path).run([Task(id="a", stage="toy_fail", payload=None)])


def test_same_content_different_ids_share_one_computation(tmp_path):
    engine = _engine(tmp_path)
    tasks = [Task(id="first", stage="toy_add", payload={"value": 7}),
             Task(id="second", stage="toy_add", payload={"value": 7})]
    run = engine.run(tasks)
    assert run["first"] == run["second"] == 7
    computed = [r for r in run.manifest.records if r.cache == "miss"]
    assert len(computed) == 1


def test_second_run_hits_memory_cache(tmp_path):
    engine = _engine(tmp_path)
    task = Task(id="a", stage="toy_add", payload={"value": 3})
    first = engine.run([task])
    second = engine.run([task])
    assert first.manifest.hit_rate() == 0.0
    assert second.manifest.hit_rate() == 1.0
    assert second.manifest.records[0].cache == "memory"


def test_fresh_engine_hits_disk_cache(tmp_path):
    task = Task(id="a", stage="toy_add", payload={"value": 3})
    _engine(tmp_path).run([task])
    run = _engine(tmp_path).run([task])
    assert run.manifest.records[0].cache == "disk"
    assert run["a"] == 3


def test_payload_change_changes_key(tmp_path):
    engine = _engine(tmp_path)
    engine.run([Task(id="a", stage="toy_add", payload={"value": 3})])
    run = engine.run([Task(id="a", stage="toy_add", payload={"value": 4})])
    assert run.manifest.records[0].cache == "miss"
    assert run["a"] == 4


def test_dependency_key_change_invalidates_dependent(tmp_path):
    engine = _engine(tmp_path)
    keys1 = engine.task_keys([
        Task(id="a", stage="toy_add", payload={"value": 1}),
        Task(id="b", stage="toy_add", payload={"value": 10}, deps=("a",)),
    ])
    keys2 = engine.task_keys([
        Task(id="a", stage="toy_add", payload={"value": 2}),
        Task(id="b", stage="toy_add", payload={"value": 10}, deps=("a",)),
    ])
    assert keys1["b"] != keys2["b"]


def test_register_stage_accepts_the_retired_version_slot():
    # The perf benchmark's layer trace re-registers stages in the old
    # ``(name, version, compute, encode, decode)`` shape.
    stage = register_stage("toy_slot", compute=_add, encode=float,
                           decode=float)
    try:
        assert stage.version is None
        again = register_stage(stage.name, stage.version, stage.compute,
                               stage.encode, stage.decode, replace=True)
        assert again == stage
        with pytest.raises(ReproError, match="positional"):
            register_stage("toy_slot", _add, float, float, float,
                           replace=True)
    finally:
        unregister_stage("toy_slot")


def test_parallel_run_matches_serial(tmp_path):
    tasks = [Task(id=f"t{i}", stage="toy_add", payload={"value": i})
             for i in range(6)]
    tasks.append(Task(id="sum", stage="toy_add", payload={"value": 0},
                      deps=tuple(f"t{i}" for i in range(6))))
    serial = Engine(backend="serial", cache_dir=tmp_path / "s").run(tasks)
    parallel = Engine(backend="pool:4", cache_dir=tmp_path / "p").run(tasks)
    assert serial.artifacts == parallel.artifacts
    assert parallel.manifest.max_workers == 4


def test_manifest_records_every_task(tmp_path):
    tasks = [Task(id="a", stage="toy_add", payload={"value": 1}),
             Task(id="b", stage="toy_add", payload={"value": 2}, deps=("a",))]
    run = _engine(tmp_path).run(tasks)
    assert {r.task_id for r in run.manifest.records} == {"a", "b"}
    assert all(r.wall_time >= 0 for r in run.manifest.records)
    assert run.manifest.summary()["stages"]["toy_add"]["tasks"] == 2


def test_manifest_roundtrip_and_save(tmp_path):
    from repro.engine import RunManifest
    run = _engine(tmp_path).run(
        [Task(id="a", stage="toy_add", payload={"value": 1})])
    path = tmp_path / "manifest.json"
    run.manifest.save(path)
    restored = RunManifest.from_dict(
        __import__("json").loads(path.read_text()))
    assert restored.records[0].task_id == "a"
    assert restored.max_workers == run.manifest.max_workers
    assert "engine run" in run.manifest.render()


def test_worker_count_resolution(monkeypatch):
    assert resolve_worker_count(3) == 3
    # Pinned to one core (``taskset -c 0``) on a wider machine: the
    # default width follows the affinity mask, so Engine() is serial.
    monkeypatch.setattr("os.cpu_count", lambda: 5)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert resolve_worker_count() == 1
    assert isinstance(Engine(use_disk=False).backend, SerialBackend)
    # Platforms without affinity masks fall back to the CPU count.
    monkeypatch.delattr("os.sched_getaffinity")
    assert resolve_worker_count() == 5
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert resolve_worker_count() == 1
    for bad in (0, "-2", "many", "2.5"):
        with pytest.raises(ReproError, match="max_workers"):
            resolve_worker_count(bad)


def test_default_engine_swap_and_reset():
    original = default_engine()
    replacement = Engine(backend="serial", use_disk=False)
    previous = reset_default_engine(replacement)
    try:
        assert previous is original
        assert default_engine() is replacement
    finally:
        reset_default_engine(previous)
    assert default_engine() is original
    assert reset_default_engine() is original
    assert default_engine() is not original
    reset_default_engine(original)
