"""Cache durability: quarantine bounds, ENOSPC degradation,
single-flight and the bucket write locks."""

import errno
import os

import pytest

from repro.engine.cache import ArtifactCache, QUARANTINE_DIRNAME
from repro.engine.locks import HAVE_LOCKS
from repro.engine.stages import StageDef


def _stage(name="toy", version=1):
    return StageDef(name=name, version=version,
                    compute=lambda payload, deps: None,
                    encode=lambda art: {"value": art["value"]},
                    decode=lambda data: {"value": data["value"]})


# ----------------------------------------------------------------------
# quarantine
# ----------------------------------------------------------------------
def test_corrupt_entry_moves_to_quarantine(tmp_path):
    stage = _stage()
    cache = ArtifactCache(cache_dir=tmp_path)
    cache.put("deadbeef", stage, {"value": 1.0})
    path = tmp_path / "toy" / "deadbeef.json"
    path.write_text("{torn", encoding="utf-8")
    fresh = ArtifactCache(cache_dir=tmp_path)
    hit, layer = fresh.get("deadbeef", stage)
    assert hit is None and layer is None
    assert not path.exists()
    quarantined = fresh.quarantined()
    assert len(quarantined) == 1
    assert quarantined[0].name == "toy.deadbeef.json"


def test_quarantine_expiry_by_count_and_age(tmp_path):
    cache = ArtifactCache(cache_dir=tmp_path)
    qdir = tmp_path / QUARANTINE_DIRNAME
    qdir.mkdir()
    for i in range(6):
        path = qdir / f"toy.k{i}.json"
        path.write_text("{}", encoding="utf-8")
        os.utime(path, (i + 1.0, i + 1.0))
    # count cap: keep the 4 newest
    removed = cache.expire_quarantine(max_age=10 ** 12, max_files=4)
    assert removed == 2
    assert {p.name for p in cache.quarantined()} == \
        {f"toy.k{i}.json" for i in (2, 3, 4, 5)}
    # age cap: mtimes of 3..6 are all ancient
    removed = cache.expire_quarantine(max_age=1.0, max_files=100)
    assert removed == 4
    assert cache.quarantined() == []
    assert cache.stats()["quarantine_expired"] == 6


def test_enospc_degrades_to_memory_only(tmp_path, monkeypatch):
    stage = _stage()
    cache = ArtifactCache(cache_dir=tmp_path)
    for i in range(4):
        cache.put(f"k{i}", stage, {"value": float(i)})
    real_replace = os.replace

    def full_disk(src, dst):
        if str(dst).endswith("full.json"):
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", full_disk)
    cache.put("full", stage, {"value": 99.0})
    # one failed publish: nothing already published is touched...
    assert cache.stats()["write_errors"] == 1
    assert len(list((tmp_path / "toy").glob("*.json"))) == 4
    assert list((tmp_path / "toy").glob("*.tmp")) == []
    # ...and the cache degraded to memory-only, not dead
    assert cache.get("full", stage)[1] == "memory"
    monkeypatch.setattr(os, "replace", real_replace)
    cache.put("after", stage, {"value": 1.0})
    assert not (tmp_path / "toy" / "after.json").exists()  # degraded


# ----------------------------------------------------------------------
# single flight
# ----------------------------------------------------------------------
def test_single_flight_claim_and_release(tmp_path):
    cache = ArtifactCache(cache_dir=tmp_path)
    flight = cache.begin_flight("k1")
    assert flight is not None
    peer = ArtifactCache(cache_dir=tmp_path)
    if HAVE_LOCKS:
        assert peer.begin_flight("k1") is None
    cache.end_flight(flight)
    second = peer.begin_flight("k1")
    assert second is not None
    peer.end_flight(second)
    cache.end_flight(None)  # idempotent


@pytest.mark.skipif(not HAVE_LOCKS, reason="needs advisory locks")
def test_put_skips_disk_when_bucket_lock_is_wedged(tmp_path):
    stage = _stage()
    cache = ArtifactCache(cache_dir=tmp_path, lock_timeout=0.15)
    wedge = cache._entry_lock("k1")
    assert wedge.try_acquire()
    try:
        peer = ArtifactCache(cache_dir=tmp_path, lock_timeout=0.15)
        peer.put("k1", stage, {"value": 1.0})
        assert peer.stats()["lock_timeouts"] == 1
        assert not (tmp_path / "toy" / "k1.json").exists()
        assert peer.get("k1", stage)[1] == "memory"  # still usable
    finally:
        wedge.release()


def test_manifest_save_is_atomic(tmp_path, monkeypatch):
    from repro.engine.manifest import RunManifest
    manifest = RunManifest(max_workers=1)
    path = tmp_path / "deep" / "manifest.json"
    manifest.save(path)
    assert RunManifest.load(path).max_workers == 1

    real_replace = os.replace

    def boom(src, dst):
        raise OSError(errno.EIO, "disk detached")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(OSError):
        RunManifest(max_workers=2).save(path)
    monkeypatch.setattr(os, "replace", real_replace)
    # the old manifest is intact and no temp debris is left behind
    assert RunManifest.load(path).max_workers == 1
    assert list(path.parent.glob("*.tmp")) == []
