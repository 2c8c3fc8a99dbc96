"""Advisory cross-process file locks for the shared disk cache.

N concurrent CLI invocations may share one ``REPRO_CACHE_DIR``; the
cache guards its entry publishes and its single-flight protocol with
advisory locks on small sentinel files.  POSIX uses ``fcntl.flock`` (released by the
kernel when the holder dies, so a ``kill -9`` never wedges the cache),
Windows uses ``msvcrt.locking``; platforms with neither degrade to
no-op locks — single-process behaviour is unchanged, only the
cross-process guarantees are lost.

Every file a reader may open while it is written (cache entries, the
remote store's entries and sidecars, run manifests) is published with
:func:`publish_atomically`: a reader sees the old complete file or the
new one, never a torn write.

Acquisition is bounded: a lock held past the timeout raises
:class:`~repro.errors.CacheLockTimeout` so one wedged process cannot
stall the fleet.  Contended waits are visible through the
``engine.cache.lock_wait`` counter and the
``engine.cache.lock_wait_s`` histogram.
"""

from __future__ import annotations

import os
import tempfile
import time
from pathlib import Path
from typing import Callable, Optional

from repro.config import resolve_float
from repro.errors import CacheLockTimeout
from repro.observe import TIME_BUCKETS, get_tracer

#: Environment variable bounding any single lock acquisition [s].
LOCK_TIMEOUT_ENV = "REPRO_LOCK_TIMEOUT"

#: Default acquisition bound when the env var is unset [s].
DEFAULT_LOCK_TIMEOUT = 30.0

#: Poll interval while waiting for a contended lock [s].
POLL_INTERVAL = 0.01

try:  # POSIX
    import fcntl

    def _try_lock(fd: int) -> bool:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            return False
        return True

    def _unlock(fd: int) -> None:
        fcntl.flock(fd, fcntl.LOCK_UN)

    HAVE_LOCKS = True
except ImportError:  # pragma: no cover - Windows
    try:
        import msvcrt

        def _try_lock(fd: int) -> bool:
            try:
                os.lseek(fd, 0, os.SEEK_SET)
                msvcrt.locking(fd, msvcrt.LK_NBLCK, 1)
            except OSError:
                return False
            return True

        def _unlock(fd: int) -> None:
            os.lseek(fd, 0, os.SEEK_SET)
            msvcrt.locking(fd, msvcrt.LK_UNLCK, 1)

        HAVE_LOCKS = True
    except ImportError:  # pragma: no cover - exotic platform

        def _try_lock(fd: int) -> bool:
            return True

        def _unlock(fd: int) -> None:
            pass

        HAVE_LOCKS = False


def publish_atomically(path: Path, data: bytes,
                       before_rename: Optional[Callable[[], None]] = None,
                       ) -> None:
    """Write ``data`` to ``path`` through a temp file and ``os.replace``.

    The temp file lives in ``path``'s directory (which must exist), so
    the rename is atomic.  ``before_rename`` runs between the write and
    the rename (the cache's crash-window chaos point).  On an
    ``OSError`` the temp file is removed and the error re-raised.
    """
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        if before_rename is not None:
            before_rename()
        os.replace(tmp_name, path)
    except OSError:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def resolve_lock_timeout(timeout: Optional[float] = None) -> float:
    """Lock timeout: explicit > ``REPRO_LOCK_TIMEOUT`` > default.

    Zero, negative, NaN, infinite and non-numeric values (explicit or
    from the environment) are rejected up front — a bad bound here
    would otherwise turn the ``flock`` wait loop into a spin that
    never times out (NaN deadlines compare false forever).
    """
    return resolve_float(LOCK_TIMEOUT_ENV, DEFAULT_LOCK_TIMEOUT,
                         timeout, positive=True)


class FileLock:
    """One advisory lock on one sentinel file.

    Usable as a context manager (blocking acquire with timeout) or via
    :meth:`try_acquire` for the single-flight non-blocking path.  The
    sentinel file is created on demand and deliberately left in place —
    flock state dies with the holder, and keeping the inode stable
    avoids an unlink/recreate race between two acquirers.
    """

    def __init__(self, path: os.PathLike,
                 timeout: Optional[float] = None):
        self.path = Path(path)
        self.timeout = resolve_lock_timeout(timeout)
        self._fd: Optional[int] = None

    @property
    def held(self) -> bool:
        """True while this instance holds the lock."""
        return self._fd is not None

    def _open(self) -> int:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        return os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)

    def try_acquire(self) -> bool:
        """Non-blocking acquire; True when the lock is now held."""
        if self._fd is not None:
            return True
        fd = self._open()
        if _try_lock(fd):
            self._fd = fd
            return True
        os.close(fd)
        return False

    def acquire(self, timeout: Optional[float] = None) -> None:
        """Blocking acquire; :class:`CacheLockTimeout` past the bound.

        A contended wait (any wait at all) is recorded in the
        ``engine.cache.lock_wait`` counter and its duration in the
        ``engine.cache.lock_wait_s`` histogram.
        """
        if self.try_acquire():
            return
        bound = self.timeout if timeout is None else float(timeout)
        deadline = time.monotonic() + bound
        start = time.monotonic()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter("engine.cache.lock_wait").inc()
        try:
            while True:
                time.sleep(POLL_INTERVAL)
                if self.try_acquire():
                    return
                if time.monotonic() >= deadline:
                    raise CacheLockTimeout(
                        f"could not acquire {self.path} within "
                        f"{bound:g}s (held by another process?)")
        finally:
            if tracer.enabled:
                tracer.histogram("engine.cache.lock_wait_s",
                                 TIME_BUCKETS).observe(
                    time.monotonic() - start)

    def release(self) -> None:
        """Release the lock (no-op when not held)."""
        if self._fd is None:
            return
        try:
            _unlock(self._fd)
        finally:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __del__(self):  # pragma: no cover - interpreter teardown
        try:
            self.release()
        except Exception:
            pass
