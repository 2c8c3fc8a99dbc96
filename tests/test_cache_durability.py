"""Cache durability: quarantine bounds, LRU eviction, pins, ENOSPC
degradation, single-flight and the bucket write locks."""

import errno
import os
import time

import pytest

from repro.engine.cache import (
    ArtifactCache,
    CACHE_MAX_BYTES_ENV,
    QUARANTINE_DIRNAME,
    parse_size,
    resolve_max_bytes,
)
from repro.engine.durability import mark_active, run_dir, write_pins
from repro.engine.locks import HAVE_LOCKS
from repro.engine.stages import StageDef
from repro.errors import ReproError


def _stage(name="toy", version=1):
    return StageDef(name=name, version=version,
                    compute=lambda payload, deps: None,
                    encode=lambda art: {"value": art["value"]},
                    decode=lambda data: {"value": data["value"]})


# ----------------------------------------------------------------------
# size parsing / budget resolution
# ----------------------------------------------------------------------
def test_parse_size():
    assert parse_size("1024") == 1024
    assert parse_size("4K") == 4096
    assert parse_size("2M") == 2 * 1024 ** 2
    assert parse_size("1G") == 1024 ** 3
    assert parse_size(" 512m ") == 512 * 1024 ** 2
    assert parse_size("8KB") == 8192
    for bad in ("", "abc", "-5", "1.5M"):
        with pytest.raises(ReproError):
            parse_size(bad)


def test_resolve_max_bytes(monkeypatch):
    monkeypatch.delenv(CACHE_MAX_BYTES_ENV, raising=False)
    assert resolve_max_bytes() is None
    assert resolve_max_bytes(4096) == 4096
    monkeypatch.setenv(CACHE_MAX_BYTES_ENV, "64K")
    assert resolve_max_bytes() == 65536
    with pytest.raises(ReproError):
        resolve_max_bytes(0)


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


# ----------------------------------------------------------------------
# LRU eviction / pins / budget
# ----------------------------------------------------------------------
def test_evict_to_removes_lru_first(tmp_path):
    stage = _stage()
    cache = ArtifactCache(cache_dir=tmp_path)
    for i in range(4):
        cache.put(f"k{i}", stage, {"value": float(i)})
    # touch k0 so k1 becomes the least recently used
    cache.clear_memory()
    cache.get("k0", stage)
    total, count = cache.disk_usage()
    assert count == 4
    per_entry = total // 4
    evicted = cache.evict_to(total - per_entry)  # need to free one
    assert evicted == 1
    assert not (tmp_path / "toy" / "k1.json").exists()
    assert (tmp_path / "toy" / "k0.json").exists()


def test_eviction_never_touches_pinned_entries(tmp_path):
    stage = _stage()
    cache = ArtifactCache(cache_dir=tmp_path)
    for i in range(4):
        cache.put(f"k{i}", stage, {"value": float(i)})
    cache.pin({"k0", "k1", "k2", "k3"})
    assert cache.evict_to(0) == 0
    cache.unpin({"k0", "k1"})
    assert cache.evict_to(0) == 2
    remaining = {p.name for p in (tmp_path / "toy").glob("*.json")}
    assert remaining == {"k2.json", "k3.json"}


def test_eviction_respects_cross_process_pins(tmp_path):
    stage = _stage()
    cache = ArtifactCache(cache_dir=tmp_path)
    for i in range(2):
        cache.put(f"k{i}", stage, {"value": float(i)})
    directory = run_dir(tmp_path, "live-run")
    mark_active(directory)
    write_pins(directory, {"k0"})
    fresh = ArtifactCache(cache_dir=tmp_path)  # no in-process pins
    assert fresh.evict_to(0) == 1
    assert (tmp_path / "toy" / "k0.json").exists()
    assert not (tmp_path / "toy" / "k1.json").exists()


def test_max_bytes_budget_is_enforced_on_put(tmp_path):
    stage = _stage()
    cache = ArtifactCache(cache_dir=tmp_path)
    cache.put("probe", stage, {"value": 0.0})
    entry_size = cache.disk_usage()[0]
    budget = entry_size * 3
    cache = ArtifactCache(cache_dir=tmp_path, max_bytes=budget)
    for i in range(12):
        cache.put(f"k{i}", stage, {"value": float(i)})
    cache.enforce_budget()
    assert cache.disk_usage()[0] <= budget
    assert cache.stats()["evicted"] > 0


def test_enospc_evicts_then_degrades(tmp_path, monkeypatch):
    stage = _stage()
    cache = ArtifactCache(cache_dir=tmp_path)
    for i in range(4):
        cache.put(f"k{i}", stage, {"value": float(i)})
    before = cache.disk_usage()[1]
    real_replace = os.replace

    def full_disk(src, dst):
        if str(dst).endswith("full.json"):
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", full_disk)
    cache.put("full", stage, {"value": 99.0})
    # the publish failed both times, but made room trying...
    assert cache.disk_usage()[1] < before
    assert cache.stats()["write_errors"] == 1
    assert cache.stats()["evicted"] > 0
    # ...and the cache degraded to memory-only, not dead
    assert cache.get("full", stage)[1] == "memory"
    monkeypatch.setattr(os, "replace", real_replace)
    cache.put("after", stage, {"value": 1.0})
    assert not (tmp_path / "toy" / "after.json").exists()  # degraded


def test_atime_journal_tracks_reads(tmp_path):
    stage = _stage()
    cache = ArtifactCache(cache_dir=tmp_path)
    cache.put("k1", stage, {"value": 1.0})
    cache.clear_memory()
    cache.get("k1", stage)
    atimes = cache._read_atimes()
    assert "k1" in atimes
    assert atimes["k1"] == pytest.approx(time.time(), abs=60.0)


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


def test_disk_entries_skip_internal_dirs(tmp_path):
    stage = _stage()
    cache = ArtifactCache(cache_dir=tmp_path)
    cache.put("k1", stage, {"value": 1.0})
    # internal state must never be counted (or evicted) as artefacts
    (tmp_path / "runs" / "r1").mkdir(parents=True)
    (tmp_path / "runs" / "r1" / "journal.jsonl").write_text("{}\n")
    (tmp_path / QUARANTINE_DIRNAME).mkdir()
    (tmp_path / QUARANTINE_DIRNAME / "toy.bad.json").write_text("{}")
    total, count = cache.disk_usage()
    assert count == 1


def test_collect_tmp_files(tmp_path):
    stage = _stage()
    cache = ArtifactCache(cache_dir=tmp_path)
    cache.put("k1", stage, {"value": 1.0})
    orphan = tmp_path / "toy" / "crashed.tmp"
    orphan.write_text("partial", encoding="utf-8")
    os.utime(orphan, (1.0, 1.0))
    fresh_orphan = tmp_path / "toy" / "inflight.tmp"
    fresh_orphan.write_text("partial", encoding="utf-8")
    cache._collect_tmp_files()
    assert not orphan.exists()
    assert fresh_orphan.exists()  # too young to be debris


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
