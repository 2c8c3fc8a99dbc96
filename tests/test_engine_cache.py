"""The two-layer artifact cache: memory identity, disk round-trips,
entry validation and directory resolution."""

import json

import pytest

from repro.cells.variants import DeviceVariant
from repro.engine import Engine, executor
from repro.engine.cache import (
    CACHE_DIR_ENV,
    STORE_FORMAT,
    ArtifactCache,
    resolve_cache_dir,
)
from repro.engine.pipeline import cell_ppa_tasks
from repro.engine.stages import StageDef


def _stage(persistent=True):
    codec = dict(encode=lambda art: {"value": art["value"]},
                 decode=lambda data: {"value": data["value"]})
    return StageDef(name="toy",
                    compute=lambda payload, deps: None,
                    **(codec if persistent else {}))


def test_memory_layer_returns_identical_object(tmp_path):
    cache = ArtifactCache(cache_dir=tmp_path)
    artifact = {"value": 42.0}
    cache.put("k1", _stage(), artifact)
    hit, layer = cache.get("k1", _stage())
    assert hit is artifact
    assert layer == "memory"


def test_disk_layer_roundtrips_across_instances(tmp_path):
    stage = _stage()
    ArtifactCache(cache_dir=tmp_path).put("k1", stage, {"value": 0.1})
    fresh = ArtifactCache(cache_dir=tmp_path)
    hit, layer = fresh.get("k1", stage)
    assert layer == "disk"
    assert hit == {"value": 0.1}
    # and it is now memory-resident
    again, layer2 = fresh.get("k1", stage)
    assert layer2 == "memory"
    assert again is hit


def _key_under_code(monkeypatch, digest):
    """The INV1X1 / 2D PPA task's key, as code hashing to ``digest``
    would compute it."""
    monkeypatch.setattr(executor, "code_digest", lambda: digest)
    _, tasks = cell_ppa_tasks("INV1X1", DeviceVariant.TWO_D)
    return Engine(backend="serial", use_disk=False).task_keys(tasks)[
        tasks[-1].id]


def test_stage_version_bump_invalidates_disk_artifacts(tmp_path,
                                                       monkeypatch):
    # the code digest is the version: an artefact on disk from other code
    # sits under another key, so the current code misses it
    old = _key_under_code(monkeypatch, "0" * 64)
    new = _key_under_code(monkeypatch, "1" * 64)
    assert old != new
    ArtifactCache(cache_dir=tmp_path).put(old, _stage(), {"value": 1.0})
    hit, layer = ArtifactCache(cache_dir=tmp_path).get(new, _stage())
    assert hit is None and layer is None
    hit, layer = ArtifactCache(cache_dir=tmp_path).get(old, _stage())
    assert hit == {"value": 1.0} and layer == "disk"


def test_corrupt_disk_entry_is_a_miss_not_an_error(tmp_path):
    stage = _stage()
    cache = ArtifactCache(cache_dir=tmp_path)
    cache.put("k1", stage, {"value": 1.0})
    path = tmp_path / "toy" / "k1.json"
    path.write_text("{not json", encoding="utf-8")
    hit, layer = ArtifactCache(cache_dir=tmp_path).get("k1", stage)
    assert hit is None and layer is None


def _write_entry(tmp_path, key="k1", **overrides):
    stage = _stage()
    ArtifactCache(cache_dir=tmp_path).put(key, stage, {"value": 1.0})
    path = tmp_path / "toy" / f"{key}.json"
    if overrides:
        record = json.loads(path.read_text())
        record.update(overrides)
        path.write_text(json.dumps(record), encoding="utf-8")
    return path


@pytest.mark.parametrize("mangle", [
    lambda p: p.write_text("{\"format\": 1, \"stage\":", encoding="utf-8"),
    lambda p: p.write_text("[1, 2, 3]", encoding="utf-8"),
    lambda p: p.write_text(json.dumps(
        json.loads(p.read_text()) | {"format": 999}), encoding="utf-8"),
    lambda p: p.write_text(json.dumps(
        json.loads(p.read_text()) | {"stage": "other"}), encoding="utf-8"),
    lambda p: p.write_text(json.dumps(
        {k: v for k, v in json.loads(p.read_text()).items()
         if k != "artifact"}), encoding="utf-8"),
    lambda p: p.write_text(json.dumps(
        json.loads(p.read_text()) | {"artifact": {"wrong": 1}}),
        encoding="utf-8"),
], ids=["truncated-json", "non-dict", "wrong-format", "wrong-stage",
        "missing-artifact", "undecodable-body"])
def test_corruption_matrix_quarantines_entry(tmp_path, mangle):
    stage = _stage()
    path = _write_entry(tmp_path)
    mangle(path)
    cache = ArtifactCache(cache_dir=tmp_path)
    hit, layer = cache.get("k1", stage)
    assert hit is None and layer is None
    # Quarantined: the bad file is gone, so a second lookup is a clean
    # miss that does not re-count corruption.
    assert not path.exists()
    assert cache.corrupt == 1
    again, _ = cache.get("k1", stage)
    assert again is None
    assert cache.corrupt == 1
    assert cache.misses == 2


def test_unreadable_entry_is_miss_without_quarantine_crash(tmp_path):
    import os as _os
    stage = _stage()
    path = _write_entry(tmp_path)
    _os.chmod(path, 0o000)
    try:
        if _os.access(path, _os.R_OK):   # running as root: chmod no-op
            pytest.skip("cannot make file unreadable in this environment")
        cache = ArtifactCache(cache_dir=tmp_path)
        hit, layer = cache.get("k1", stage)
        assert hit is None and layer is None
    finally:
        _os.chmod(path, 0o644)


def test_stale_version_entry_is_quarantined_once(tmp_path):
    # An entry of an older store-format version is stale: one lookup
    # quarantines it, the next is a clean miss.
    path = _write_entry(tmp_path, format=STORE_FORMAT - 1)
    cache = ArtifactCache(cache_dir=tmp_path)
    hit, layer = cache.get("k1", _stage())
    assert hit is None and layer is None
    assert not path.exists()
    assert cache.corrupt == 1
    assert cache.get("k1", _stage()) == (None, None)
    assert cache.corrupt == 1


def test_put_write_error_degrades_to_memory_only(tmp_path, monkeypatch):
    stage = _stage()
    cache = ArtifactCache(cache_dir=tmp_path / "store")

    def boom(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("repro.engine.locks.tempfile.mkstemp", boom)
    cache.put("k1", stage, {"value": 1.0})   # must not raise
    assert cache.write_errors == 1
    hit, layer = cache.get("k1", stage)
    assert layer == "memory" and hit == {"value": 1.0}
    monkeypatch.undo()
    # Disk writes stay disabled for the rest of the run...
    cache.put("k2", stage, {"value": 2.0})
    assert not (tmp_path / "store" / "toy" / "k2.json").exists()
    assert cache.write_errors == 1
    # ...but a fresh cache (fresh run) writes again.
    fresh = ArtifactCache(cache_dir=tmp_path / "store")
    fresh.put("k3", stage, {"value": 3.0})
    assert (tmp_path / "store" / "toy" / "k3.json").exists()


def test_non_persistent_stage_stays_in_memory_only(tmp_path):
    stage = _stage(persistent=False)
    cache = ArtifactCache(cache_dir=tmp_path)
    cache.put("k1", stage, {"value": 1.0})
    assert not (tmp_path / "toy").exists()
    hit, layer = ArtifactCache(cache_dir=tmp_path).get("k1", stage)
    assert hit is None


def test_disk_store_is_valid_json_with_metadata(tmp_path):
    stage = _stage()
    ArtifactCache(cache_dir=tmp_path).put("deadbeef", stage, {"value": 2.5})
    record = json.loads((tmp_path / "toy" / "deadbeef.json").read_text())
    assert record == {"format": STORE_FORMAT, "stage": "toy",
                      "key": "deadbeef", "artifact": {"value": 2.5}}


def test_stats_counters(tmp_path):
    stage = _stage()
    cache = ArtifactCache(cache_dir=tmp_path)
    cache.get("missing", stage)
    cache.put("k1", stage, {"value": 1.0})
    cache.get("k1", stage)
    stats = cache.stats()
    core = {k: stats[k] for k in ("hits_memory", "hits_disk", "misses",
                                  "corrupt", "write_errors")}
    assert core == {"hits_memory": 1, "hits_disk": 0, "misses": 1,
                    "corrupt": 0, "write_errors": 0}
    # durability counters all start at zero
    assert stats["quarantine_expired"] == 0
    assert stats["lock_timeouts"] == 0
    assert stats["flight_timeouts"] == 0


def test_cache_dir_resolution(monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
    assert resolve_cache_dir() == tmp_path / "env"
    assert resolve_cache_dir(tmp_path / "explicit") == tmp_path / "explicit"
    monkeypatch.setenv(CACHE_DIR_ENV, "")
    assert resolve_cache_dir() is None
    monkeypatch.delenv(CACHE_DIR_ENV)
    assert resolve_cache_dir().name == "repro"


def test_empty_env_disables_disk_layer(monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, "")
    cache = ArtifactCache()
    assert cache.cache_dir is None
    stage = _stage()
    cache.put("k1", stage, {"value": 1.0})  # must not raise
    hit, layer = cache.get("k1", stage)
    assert layer == "memory"
