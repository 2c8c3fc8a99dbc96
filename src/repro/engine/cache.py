"""The two-layer content-addressed artifact cache.

Layer 1 is an in-process dict keyed on the task fingerprint — hits are
free and return the *same object*, preserving the identity semantics the
old ad-hoc memos provided.  Layer 2 is an on-disk JSON store (one file
per artefact, ``<dir>/<stage>/<fingerprint>.json``) shared by every
process on the machine, so a warm cache survives interpreter restarts
and is visible to pool workers.

Directory resolution order: explicit argument > ``REPRO_CACHE_DIR``
environment variable > ``~/.cache/repro``.  Setting
``REPRO_CACHE_DIR`` to the empty string disables the disk layer.

Multi-process safety (see :mod:`repro.engine.locks`): entry publishes
are atomic (``mkstemp`` + ``os.replace``) *and* serialised per key
bucket by advisory file locks, and a per-key *single-flight* lock
(``begin_flight`` / ``end_flight``) lets N invocations sharing one
``REPRO_CACHE_DIR`` avoid stampeding the same fingerprint: the
scheduler claims a key's flight when it dispatches the task, so
whoever holds it computes while everyone else runs other work and
then reads the published entry (see :mod:`repro.engine.scheduler`).

The store is unbounded: entries are small JSON documents and nothing
deletes a valid one.  Corrupt or stale entries move to a quarantine
directory capped by age and count.  Any failed publish (a full disk,
permissions...) degrades the cache to memory-only writes for the rest
of the run.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.locks import (
    FileLock,
    publish_atomically,
    resolve_lock_timeout,
)
from repro.engine.remote import resolve_remote_cache
from repro.engine.stages import StageDef
from repro.errors import CacheLockTimeout
from repro.observe import get_tracer

#: Environment variable overriding the on-disk store location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Bump to invalidate every on-disk artefact at once (store format).
STORE_FORMAT = 1

#: Quarantined entries kept at most this long.
QUARANTINE_MAX_AGE_S = 7 * 24 * 3600.0

#: Quarantined entries kept at most this many (newest survive).
QUARANTINE_MAX_FILES = 32

#: Store-internal directory/file names (never stage names).
QUARANTINE_DIRNAME = ".quarantine"
LOCKS_DIRNAME = ".locks"
FLIGHT_DIRNAME = ".flight"


def resolve_cache_dir(cache_dir: Optional[os.PathLike] = None,
                      ) -> Optional[Path]:
    """Resolve the on-disk store directory (None disables the layer)."""
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get(CACHE_DIR_ENV)
    if env is not None:
        return Path(env) if env else None
    return Path.home() / ".cache" / "repro"


class _NoFlight:
    """Placeholder flight when the disk layer is off (nothing to race)."""

    def release(self) -> None:
        pass


NO_FLIGHT = _NoFlight()


class ArtifactCache:
    """Memory + disk artefact store, keyed on task fingerprints."""

    def __init__(self, cache_dir: Optional[os.PathLike] = None,
                 use_disk: bool = True,
                 lock_timeout: Optional[float] = None,
                 remote=None):
        self._memory: Dict[str, Any] = {}
        self.cache_dir = resolve_cache_dir(cache_dir) if use_disk else None
        self.lock_timeout = resolve_lock_timeout(lock_timeout)
        #: Optional third tier: a RemoteCache instance, a base URL, or
        #: None (resolve ``REPRO_REMOTE_CACHE``; unset = tier off).
        self.remote = resolve_remote_cache(remote)
        self.hits_memory = 0
        self.hits_disk = 0
        self.hits_remote = 0
        self.misses = 0
        self.corrupt = 0
        self.write_errors = 0
        self.quarantine_expired = 0
        self.lock_timeouts = 0
        #: Flights a peer held past the lock timeout (the scheduler
        #: then computes anyway: a bounded stampede).
        self.flight_timeouts = 0
        self._disk_writes_disabled = False

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------
    def get(self, key: str, stage: StageDef) -> Tuple[Any, Optional[str]]:
        """Return ``(artifact, layer)``; layer is None on a miss."""
        if key in self._memory:
            self.hits_memory += 1
            return self._memory[key], "memory"
        if self.cache_dir is not None and stage.persistent:
            path = self._path(stage.name, key)
            if path.is_file():
                try:
                    with open(path, "r", encoding="utf-8") as handle:
                        record = json.load(handle)
                except (OSError, ValueError):
                    record = None
                if (record is not None
                        and isinstance(record, dict)
                        and record.get("format") == STORE_FORMAT
                        and record.get("stage") == stage.name
                        and "artifact" in record):
                    try:
                        artifact = stage.decode(record["artifact"])
                    except Exception:
                        # Well-formed envelope, mangled artifact body.
                        self._quarantine(path, stage.name, key)
                        self.misses += 1
                        return None, None
                    self._memory[key] = artifact
                    self.hits_disk += 1
                    return artifact, "disk"
                # Corrupt or stale entry: quarantine it so every future
                # lookup is a clean miss instead of a re-parse of the
                # same bad bytes.
                self._quarantine(path, stage.name, key)
        if self.remote is not None and stage.persistent:
            record = self.remote.fetch(stage.name, key)
            if (record is not None
                    and record.get("format") == STORE_FORMAT):
                try:
                    artifact = stage.decode(record["artifact"])
                except Exception:
                    # Digest-valid but undecodable (e.g. a peer on an
                    # incompatible codec): treat as a miss, not corrupt.
                    pass
                else:
                    self._memory[key] = artifact
                    self.hits_remote += 1
                    # Read-through: replicate to the disk tier so the
                    # next process on this host hits locally.
                    self._replicate_local(record, stage, key)
                    return artifact, "remote"
        self.misses += 1
        return None, None

    def _replicate_local(self, record: Dict, stage: StageDef,
                         key: str) -> None:
        """Best-effort disk publish of a remote-fetched record."""
        if (self.cache_dir is None or not stage.persistent
                or self._disk_writes_disabled):
            return
        lock = self._entry_lock(key)
        if not lock.try_acquire():
            return
        try:
            self._write_entry(record, stage, key)
        finally:
            lock.release()

    def has_disk_entry(self, stage_name: str, key: str) -> bool:
        """True when the key has a published disk entry (unvalidated)."""
        if self.cache_dir is None:
            return False
        return self._path(stage_name, key).is_file()

    def put(self, key: str, stage: StageDef, artifact: Any) -> None:
        """Store an artefact in memory and (when possible) on disk.

        The publish is atomic (temp file + rename) and serialised per
        key bucket by an advisory file lock, so concurrent invocations
        sharing the store can never interleave into a torn entry.  A
        disk write failure (a full disk, permissions...) degrades the
        cache to memory-only writes for the rest of the run — visible
        through a tracer event plus the ``engine.cache.write_errors``
        counter, never silent, never fatal.

        When a remote tier is attached, the publish is mirrored there
        write-behind (after the local layers, best-effort): a remote
        failure costs nothing but the attempt — the breaker bounds
        even that.
        """
        self._memory[key] = artifact
        if not stage.persistent:
            return
        disk = (self.cache_dir is not None
                and not self._disk_writes_disabled)
        if not disk and self.remote is None:
            return
        record = {
            "format": STORE_FORMAT,
            "stage": stage.name,
            "key": key,
            "artifact": stage.encode(artifact),
        }
        if disk:
            self._publish_disk(record, stage, key)
        if self.remote is not None:
            body = json.dumps(record, separators=(",", ":"),
                              sort_keys=True).encode("utf-8")
            self.remote.store(stage.name, key, body)

    def _publish_disk(self, record: Dict, stage: StageDef,
                      key: str) -> None:
        """One locked disk publish (see :meth:`put`)."""
        lock = self._entry_lock(key)
        try:
            lock.acquire()
        except CacheLockTimeout:
            # A wedged peer must not stall the run; skip this disk
            # write (the memory layer already has the artefact).
            self.lock_timeouts += 1
            self._note_lock_timeout(stage.name, key)
            return
        try:
            self._write_entry(record, stage, key)
        finally:
            lock.release()

    def _write_entry(self, record: Dict, stage: StageDef, key: str) -> None:
        """One atomic entry publish (failure disables disk writes)."""
        path = self._path(stage.name, key)
        # Canonical form (sorted keys) — the same bytes the remote tier
        # stores, so an entry replicated from the remote store is
        # byte-identical to a local publish of the same artifact.
        data = json.dumps(record, separators=(",", ":"),
                          sort_keys=True).encode("utf-8")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # Concurrent workers may race on the same key; both write
            # identical content, the atomic rename keeps readers safe.
            publish_atomically(
                path, data,
                before_rename=lambda: self._maybe_kill_mid_write(
                    stage.name))
        except OSError as exc:
            self.write_errors += 1
            self._disk_writes_disabled = True
            tracer = get_tracer()
            if tracer.enabled:
                tracer.counter("engine.cache.write_errors").inc()
                tracer.event("engine.cache.write_error", stage=stage.name,
                             key=key, error=type(exc).__name__,
                             message=str(exc))

    @staticmethod
    def _maybe_kill_mid_write(stage_name: str) -> None:
        """Chaos hook: die between temp write and atomic rename.

        Exercises the crash window of the publish protocol — a reader
        must never observe the half-published entry, only the orphaned
        ``*.tmp`` file, which no lookup ever opens.
        """
        from repro.resilience.faults import draw_fault, \
            kill_current_process
        if draw_fault("write_kill", stage_name) is not None:
            kill_current_process()  # pragma: no cover - kills process

    def _note_lock_timeout(self, stage_name: str, key: str) -> None:
        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter("engine.cache.lock_timeout").inc()
            tracer.event("engine.cache.lock_timeout", stage=stage_name,
                         key=key)

    # ------------------------------------------------------------------
    # quarantine
    # ------------------------------------------------------------------
    def _quarantine(self, path: Path, stage_name: str, key: str) -> None:
        """Move a corrupt/stale entry aside (bounded forensics store)."""
        dest_dir = self.cache_dir / QUARANTINE_DIRNAME
        try:
            dest_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest_dir / f"{stage_name}.{key}.json")
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass
        self.corrupt += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter("engine.cache.corrupt").inc()
            tracer.event("engine.cache.quarantined", stage=stage_name,
                         key=key)
        self.expire_quarantine()

    def quarantined(self) -> List[Path]:
        """Current quarantine contents (oldest first)."""
        if self.cache_dir is None:
            return []
        dest_dir = self.cache_dir / QUARANTINE_DIRNAME
        if not dest_dir.is_dir():
            return []
        entries = []
        for path in dest_dir.iterdir():
            try:
                entries.append((path.stat().st_mtime, path))
            except OSError:
                continue
        return [path for _, path in sorted(entries, key=lambda e: e[0])]

    def expire_quarantine(self,
                          max_age: float = QUARANTINE_MAX_AGE_S,
                          max_files: int = QUARANTINE_MAX_FILES) -> int:
        """Cap the quarantine by age and count; returns removals."""
        entries = self.quarantined()
        if not entries:
            return 0
        cutoff = time.time() - max_age
        doomed = [p for p in entries
                  if self._mtime(p) < cutoff]
        survivors = [p for p in entries if p not in doomed]
        if len(survivors) > max_files:
            doomed.extend(survivors[:len(survivors) - max_files])
        removed = 0
        for path in doomed:
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        if removed:
            self.quarantine_expired += removed
            tracer = get_tracer()
            if tracer.enabled:
                tracer.counter("engine.cache.quarantine_expired").inc(
                    removed)
        return removed

    @staticmethod
    def _mtime(path: Path) -> float:
        try:
            return path.stat().st_mtime
        except OSError:
            return 0.0

    # ------------------------------------------------------------------
    # single flight (cross-process stampede control)
    # ------------------------------------------------------------------
    def begin_flight(self, key: str):
        """Claim the right to compute ``key``; None when held elsewhere.

        The claim is an advisory lock on ``.flight/<key>.flight`` —
        released explicitly via :meth:`end_flight`, or by the kernel if
        the holder dies, so a crashed process never parks a key
        forever.
        """
        if self.cache_dir is None:
            return NO_FLIGHT
        lock = FileLock(self.cache_dir / FLIGHT_DIRNAME / f"{key}.flight",
                        timeout=self.lock_timeout)
        try:
            if lock.try_acquire():
                return lock
        except OSError:
            return NO_FLIGHT
        return None

    @staticmethod
    def end_flight(flight) -> None:
        """Release a claim from :meth:`begin_flight` (idempotent)."""
        if flight is not None:
            flight.release()

    @property
    def remote_degraded(self) -> bool:
        """True while the remote tier exists and its breaker is open."""
        return self.remote is not None and self.remote.degraded

    def stats(self) -> Dict[str, Any]:
        """Hit/miss/corruption/lock counters since construction."""
        out: Dict[str, Any] = {
            "hits_memory": self.hits_memory,
            "hits_disk": self.hits_disk,
            "hits_remote": self.hits_remote,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "write_errors": self.write_errors,
            "quarantine_expired": self.quarantine_expired,
            "lock_timeouts": self.lock_timeouts,
            "flight_timeouts": self.flight_timeouts,
        }
        if self.remote is not None:
            out["remote"] = self.remote.stats()
        return out

    def _entry_lock(self, key: str) -> FileLock:
        """The bucket lock serialising disk publishes of a key."""
        bucket = key[:2] if len(key) >= 2 else "00"
        return FileLock(
            self.cache_dir / LOCKS_DIRNAME / f"entry-{bucket}.lock",
            timeout=self.lock_timeout)

    def _path(self, stage_name: str, key: str) -> Path:
        return self.cache_dir / stage_name / f"{key}.json"
