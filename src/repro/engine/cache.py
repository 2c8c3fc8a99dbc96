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
bucket by advisory file locks, eviction/maintenance runs under a
store-wide maintenance lock, and a per-key *single-flight* lock
(``begin_flight`` / ``end_flight``) lets N invocations sharing one
``REPRO_CACHE_DIR`` avoid stampeding the same fingerprint: the
scheduler claims a key's flight when it dispatches the task, so
whoever holds it computes while everyone else runs other work and
then reads the published entry (see :mod:`repro.engine.scheduler`).

Bounded storage: ``REPRO_CACHE_MAX_BYTES`` (plain bytes or ``512M`` /
``2G`` style) caps the on-disk store.  Eviction is LRU over a
light-weight append-only access journal (``.atime.jsonl``), never
touches entries pinned by live runs (see
:func:`repro.engine.durability.active_pins`), and also expires the
quarantine directory and stale temp files.  A full disk (``ENOSPC``)
evicts and retries once before degrading to memory-only writes.
"""

from __future__ import annotations

import errno
import json
import os
import re
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.locks import FileLock, resolve_lock_timeout
from repro.engine.remote import resolve_remote_cache
from repro.engine.stages import StageDef
from repro.errors import CacheLockTimeout, ConfigError
from repro.observe import get_tracer

#: Environment variable overriding the on-disk store location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable capping the on-disk store size (bytes, or with
#: a ``K``/``M``/``G`` suffix).  Unset/empty = unbounded.
CACHE_MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"

#: Bump to invalidate every on-disk artefact at once (store format).
STORE_FORMAT = 1

#: Quarantined entries kept at most this long.
QUARANTINE_MAX_AGE_S = 7 * 24 * 3600.0

#: Quarantined entries kept at most this many (newest survive).
QUARANTINE_MAX_FILES = 32

#: Orphaned ``*.tmp`` publish files older than this are collected.
TMP_MAX_AGE_S = 3600.0

#: Store-internal directory/file names (never stage names).
QUARANTINE_DIRNAME = ".quarantine"
LOCKS_DIRNAME = ".locks"
FLIGHT_DIRNAME = ".flight"
ATIME_FILENAME = ".atime.jsonl"

_SIZE_RE = re.compile(r"^\s*(\d+)\s*([kKmMgG]?)[bB]?\s*$")
_SIZE_FACTORS = {"": 1, "k": 1024, "m": 1024 ** 2, "g": 1024 ** 3}


def parse_size(text: str, name: str = "size") -> int:
    """Parse a byte budget: plain int or ``K``/``M``/``G`` suffixed.

    ``name`` labels the :class:`ConfigError` (an env-var or parameter
    name) so a malformed value fails at startup naming its source.
    """
    match = _SIZE_RE.match(text)
    if not match:
        raise ConfigError(f"{name} must be bytes or e.g. '512M', "
                          f"got {text!r}")
    return int(match.group(1)) * _SIZE_FACTORS[match.group(2).lower()]


def resolve_cache_dir(cache_dir: Optional[os.PathLike] = None,
                      ) -> Optional[Path]:
    """Resolve the on-disk store directory (None disables the layer)."""
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get(CACHE_DIR_ENV)
    if env is not None:
        return Path(env) if env else None
    return Path.home() / ".cache" / "repro"


def resolve_max_bytes(max_bytes: Optional[int] = None) -> Optional[int]:
    """Store budget: explicit > ``REPRO_CACHE_MAX_BYTES`` > unbounded."""
    if max_bytes is not None:
        if max_bytes <= 0:
            raise ConfigError(f"max_bytes must be positive, "
                              f"got {max_bytes}")
        return int(max_bytes)
    env = os.environ.get(CACHE_MAX_BYTES_ENV)
    if env:
        value = parse_size(env, name=CACHE_MAX_BYTES_ENV)
        if value <= 0:
            raise ConfigError(f"{CACHE_MAX_BYTES_ENV} must be positive, "
                              f"got {env!r}")
        return value
    return None


class _NoFlight:
    """Placeholder flight when the disk layer is off (nothing to race)."""

    def release(self) -> None:
        pass


NO_FLIGHT = _NoFlight()


class ArtifactCache:
    """Memory + disk artefact store, keyed on task fingerprints."""

    def __init__(self, cache_dir: Optional[os.PathLike] = None,
                 use_disk: bool = True,
                 max_bytes: Optional[int] = None,
                 lock_timeout: Optional[float] = None,
                 remote=None):
        self._memory: Dict[str, Any] = {}
        self.cache_dir = resolve_cache_dir(cache_dir) if use_disk else None
        self.max_bytes = resolve_max_bytes(max_bytes)
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
        self.evicted = 0
        self.evicted_bytes = 0
        self.quarantine_expired = 0
        self.lock_timeouts = 0
        #: Flights a peer held past the lock timeout (the scheduler
        #: then computes anyway: a bounded stampede).
        self.flight_timeouts = 0
        self._disk_writes_disabled = False
        self._pinned: set = set()
        #: Bytes written since the last budget check (bounds rescans).
        self._written_since_check = 0

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
                        and record.get("version") == stage.version
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
                    self._touch(stage.name, key)
                    return artifact, "disk"
                # Corrupt or stale entry: quarantine it so every future
                # lookup is a clean miss instead of a re-parse of the
                # same bad bytes.
                self._quarantine(path, stage.name, key)
        if self.remote is not None and stage.persistent:
            record = self.remote.fetch(stage.name, key)
            if (record is not None
                    and record.get("format") == STORE_FORMAT
                    and record.get("version") == stage.version):
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
            written = self._write_entry(record, stage, key,
                                        evict_on_enospc=True)
        finally:
            lock.release()
        if written:
            self._touch(stage.name, key)
            self._written_since_check += written
            self._maybe_enforce_budget()

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
        full disk evicts by LRU and retries once; any other disk write
        failure (permissions...) degrades the cache to memory-only
        writes for the rest of the run — visible through a tracer
        event plus the ``engine.cache.write_errors`` counter, never
        silent, never fatal.

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
            "version": stage.version,
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
        """One locked, budget-enforcing disk publish (see :meth:`put`)."""
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
            written = self._write_entry(record, stage, key,
                                        evict_on_enospc=True)
        finally:
            lock.release()
        if written:
            self._touch(stage.name, key)
            self._written_since_check += written
            self._maybe_enforce_budget()

    def _write_entry(self, record: Dict, stage: StageDef, key: str,
                     evict_on_enospc: bool) -> int:
        """One atomic entry publish; returns bytes written (0 = failed)."""
        path = self._path(stage.name, key)
        tmp_name = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # Atomic publish: concurrent workers may race on the same
            # key; both write identical content, the rename keeps
            # readers safe.
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # Canonical form (sorted keys) — the same bytes the
                # remote tier stores, so an entry replicated from the
                # remote store is byte-identical to a local publish of
                # the same artifact.
                json.dump(record, handle, separators=(",", ":"),
                          sort_keys=True)
            self._maybe_kill_mid_write(stage.name)
            size = os.path.getsize(tmp_name)
            os.replace(tmp_name, path)
            return size
        except OSError as exc:
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            if evict_on_enospc and exc.errno == errno.ENOSPC:
                # Full disk: make room (half the budget, or half the
                # current usage when unbounded) and retry once before
                # giving up on the disk layer.
                target = (self.max_bytes // 2 if self.max_bytes
                          else self.disk_usage()[0] // 2)
                if self.evict_to(target) > 0:
                    return self._write_entry(record, stage, key,
                                             evict_on_enospc=False)
            self.write_errors += 1
            self._disk_writes_disabled = True
            tracer = get_tracer()
            if tracer.enabled:
                tracer.counter("engine.cache.write_errors").inc()
                tracer.event("engine.cache.write_error", stage=stage.name,
                             key=key, error=type(exc).__name__,
                             message=str(exc))
            return 0

    @staticmethod
    def _maybe_kill_mid_write(stage_name: str) -> None:
        """Chaos hook: die between temp write and atomic rename.

        Exercises the crash window of the publish protocol — a reader
        must never observe the half-published entry, only the orphaned
        ``*.tmp`` file that maintenance later collects.
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

    def contains(self, key: str) -> bool:
        """True when the key is resident in the memory layer."""
        return key in self._memory

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

    # ------------------------------------------------------------------
    # pins (what eviction must never remove)
    # ------------------------------------------------------------------
    def pin(self, keys) -> None:
        """Protect keys from eviction for the lifetime of this process
        (cross-process pins travel via the run journal's pins file)."""
        self._pinned.update(keys)

    def unpin(self, keys) -> None:
        """Drop in-process pins (missing keys are ignored)."""
        self._pinned.difference_update(keys)

    # ------------------------------------------------------------------
    # bounded storage / eviction
    # ------------------------------------------------------------------
    def disk_usage(self) -> Tuple[int, int]:
        """``(bytes, entries)`` of published artefacts on disk."""
        total = 0
        count = 0
        for path, size, _ in self._disk_entries():
            total += size
            count += 1
        return total, count

    def _disk_entries(self) -> List[Tuple[Path, int, float]]:
        """Published entries as ``(path, size, mtime)`` tuples."""
        out: List[Tuple[Path, int, float]] = []
        if self.cache_dir is None or not self.cache_dir.is_dir():
            return out
        for stage_dir in self.cache_dir.iterdir():
            if not stage_dir.is_dir() or stage_dir.name.startswith("."):
                continue
            if stage_dir.name == "runs":
                continue
            for path in stage_dir.iterdir():
                if path.suffix != ".json":
                    continue
                try:
                    stat = path.stat()
                except OSError:
                    continue
                out.append((path, stat.st_size, stat.st_mtime))
        return out

    def _touch(self, stage_name: str, key: str) -> None:
        """Append one access record to the LRU journal (best effort).

        ``O_APPEND`` writes of short lines are atomic on POSIX, so
        concurrent invocations interleave whole records; a torn tail is
        simply ignored by the reader.
        """
        if self.cache_dir is None:
            return
        try:
            with open(self.cache_dir / ATIME_FILENAME, "a",
                      encoding="utf-8") as handle:
                handle.write(json.dumps(
                    {"s": stage_name, "k": key, "t": time.time()},
                    separators=(",", ":")) + "\n")
        except OSError:
            pass

    def _read_atimes(self) -> Dict[str, float]:
        """Latest journalled access time per key (tolerant reader)."""
        atimes: Dict[str, float] = {}
        if self.cache_dir is None:
            return atimes
        try:
            with open(self.cache_dir / ATIME_FILENAME, "rb") as handle:
                data = handle.read()
        except OSError:
            return atimes
        for raw in data.split(b"\n"):
            if not raw:
                continue
            try:
                record = json.loads(raw.decode("utf-8"))
                atimes[str(record["k"])] = float(record["t"])
            except (ValueError, KeyError, TypeError, UnicodeDecodeError):
                continue
        return atimes

    def _maybe_enforce_budget(self) -> None:
        """Re-check the budget once enough new bytes accumulated."""
        if self.max_bytes is None:
            return
        if self._written_since_check < max(self.max_bytes // 16, 1):
            return
        self._written_since_check = 0
        self.enforce_budget()

    def enforce_budget(self) -> int:
        """Evict LRU entries until the store fits ``max_bytes``."""
        if self.max_bytes is None:
            return 0
        return self.evict_to(self.max_bytes)

    def evict_to(self, target_bytes: int) -> int:
        """Evict least-recently-used unpinned entries to a byte target.

        Runs under the store-wide maintenance lock (non-blocking: when
        another process is already evicting, this is a no-op).  Also
        expires the quarantine, collects orphaned temp files, and
        compacts the access journal.
        """
        if self.cache_dir is None:
            return 0
        maintenance = FileLock(
            self.cache_dir / LOCKS_DIRNAME / "maintenance.lock",
            timeout=self.lock_timeout)
        if not maintenance.try_acquire():
            return 0
        try:
            return self._evict_locked(target_bytes)
        finally:
            maintenance.release()

    def _evict_locked(self, target_bytes: int) -> int:
        self.expire_quarantine()
        self._collect_tmp_files()
        entries = self._disk_entries()
        total = sum(size for _, size, _ in entries)
        if total <= target_bytes:
            return 0
        atimes = self._read_atimes()
        from repro.engine.durability import active_pins
        pinned = set(self._pinned) | active_pins(self.cache_dir)
        # LRU order: journalled access time, falling back to mtime for
        # entries that predate the journal.
        ranked = sorted(entries,
                        key=lambda e: atimes.get(e[0].stem, e[2]))
        evicted = 0
        for path, size, _ in ranked:
            if total <= target_bytes:
                break
            if path.stem in pinned:
                continue
            lock = self._entry_lock(path.stem)
            if not lock.try_acquire():
                continue  # a peer is publishing this entry right now
            try:
                os.unlink(path)
            except OSError:
                continue
            finally:
                lock.release()
            self._memory.pop(path.stem, None)
            total -= size
            evicted += 1
            self.evicted += 1
            self.evicted_bytes += size
        if evicted:
            tracer = get_tracer()
            if tracer.enabled:
                tracer.counter("engine.cache.evicted").inc(evicted)
                tracer.event("engine.cache.evicted", entries=evicted,
                             remaining_bytes=total)
            self._compact_atimes(atimes)
        return evicted

    def _collect_tmp_files(self) -> None:
        """Remove orphaned publish temp files (crash debris)."""
        cutoff = time.time() - TMP_MAX_AGE_S
        if self.cache_dir is None or not self.cache_dir.is_dir():
            return
        for stage_dir in self.cache_dir.iterdir():
            if not stage_dir.is_dir() or stage_dir.name.startswith("."):
                continue
            for path in stage_dir.glob("*.tmp"):
                if self._mtime(path) < cutoff:
                    try:
                        os.unlink(path)
                    except OSError:
                        pass

    def _compact_atimes(self, atimes: Dict[str, float]) -> None:
        """Rewrite the access journal with only surviving entries."""
        survivors = {path.stem for path, _, _ in self._disk_entries()}
        tmp = self.cache_dir / (ATIME_FILENAME + ".tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                for key, ts in sorted(atimes.items(),
                                      key=lambda kv: kv[1]):
                    if key in survivors:
                        handle.write(json.dumps(
                            {"s": "", "k": key, "t": ts},
                            separators=(",", ":")) + "\n")
            os.replace(tmp, self.cache_dir / ATIME_FILENAME)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def clear_memory(self) -> None:
        """Drop the in-process layer (the disk layer is untouched)."""
        self._memory.clear()

    @property
    def remote_degraded(self) -> bool:
        """True while the remote tier exists and its breaker is open."""
        return self.remote is not None and self.remote.degraded

    def stats(self) -> Dict[str, Any]:
        """Hit/miss/corruption/eviction counters since construction."""
        out: Dict[str, Any] = {
            "hits_memory": self.hits_memory,
            "hits_disk": self.hits_disk,
            "hits_remote": self.hits_remote,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "write_errors": self.write_errors,
            "evicted": self.evicted,
            "evicted_bytes": self.evicted_bytes,
            "quarantine_expired": self.quarantine_expired,
            "lock_timeouts": self.lock_timeouts,
            "flight_timeouts": self.flight_timeouts,
        }
        if self.remote is not None:
            out["remote"] = self.remote.stats()
        return out

    def _entry_lock(self, key: str) -> FileLock:
        """The bucket lock serialising writes/evictions of a key."""
        bucket = key[:2] if len(key) >= 2 else "00"
        return FileLock(
            self.cache_dir / LOCKS_DIRNAME / f"entry-{bucket}.lock",
            timeout=self.lock_timeout)

    def _path(self, stage_name: str, key: str) -> Path:
        return self.cache_dir / stage_name / f"{key}.json"
