"""The remote artifact cache tier: an HTTP client that cannot hurt you.

:class:`RemoteCache` talks to a ``python -m repro.cachesrv`` endpoint
(selected via ``REPRO_REMOTE_CACHE=http://host:port``) and composes
with the local memory+disk tiers as read-through / write-behind: a
local miss consults the remote store before computing, a local publish
is mirrored to the remote store best-effort.

Unlike the local tiers, the network fails *partially and slowly* —
timeouts, truncated bodies, flipped bytes, flapping endpoints.  The
client therefore wraps every operation in the full fault model:

* **budgets** — every HTTP operation carries a socket timeout
  (``REPRO_REMOTE_TIMEOUT``, default 2 s); a black-holed packet costs
  one budget, never a hung run;
* **retries** — failed operations retry with capped-exponential,
  *jittered* backoff (:class:`~repro.resilience.retry.RetryPolicy`,
  ``REPRO_REMOTE_RETRIES`` extra attempts) so N clients that failed
  together do not hammer a recovering endpoint together;
* **circuit breaker** — ``REPRO_REMOTE_BREAKER_THRESHOLD`` consecutive
  failures open a :class:`~repro.resilience.breaker.CircuitBreaker`
  and every further call is refused instantly for
  ``REPRO_REMOTE_BREAKER_RESET`` seconds; a dead endpoint then costs
  one failed probe per window instead of a timeout per task;
* **integrity** — every fetched body's SHA-256 is recomputed and
  compared to the digest it was published under, and the envelope must
  name the requested stage and key; a mismatch refetches once (wire
  corruption is transient), and a second mismatch quarantines the
  entry server-side (DELETE) — a corrupt remote entry must never
  poison a run;
* **degradation** — no remote failure ever raises into a run.  Every
  failure path returns a miss (fetch) or False (store); when the
  breaker opens, the tier reports :attr:`degraded` (surfaced as the
  ``engine.cache.remote.degraded`` gauge and serve's health ladder)
  and re-attaches automatically when a half-open probe succeeds.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import socket
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Optional, Tuple

from repro.config import resolve_float, resolve_int
from repro.errors import (
    RemoteCacheError,
    RemoteCacheTimeout,
    RemoteCacheUnavailable,
)
from repro.observe import TIME_BUCKETS, get_tracer
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.retry import RetryPolicy

#: Base URL of the remote cache endpoint; unset/empty = tier off.
REMOTE_CACHE_ENV = "REPRO_REMOTE_CACHE"

#: Per-operation budget [s] (connect + response, enforced by socket
#: timeout).
REMOTE_TIMEOUT_ENV = "REPRO_REMOTE_TIMEOUT"
DEFAULT_REMOTE_TIMEOUT = 2.0

#: Extra attempts per operation after the first failure.
REMOTE_RETRIES_ENV = "REPRO_REMOTE_RETRIES"
DEFAULT_REMOTE_RETRIES = 2

#: Consecutive failures that open the circuit breaker.
REMOTE_BREAKER_THRESHOLD_ENV = "REPRO_REMOTE_BREAKER_THRESHOLD"
DEFAULT_BREAKER_THRESHOLD = 5

#: Seconds an open breaker refuses calls before the half-open probe.
REMOTE_BREAKER_RESET_ENV = "REPRO_REMOTE_BREAKER_RESET"
DEFAULT_BREAKER_RESET = 10.0

#: Header carrying an entry body's SHA-256 (must match cachesrv).
DIGEST_HEADER = "X-Repro-Sha256"

#: Backoff shape of remote retries.  Deliberately short: the remote
#: tier is an accelerator, a run must never wait long for it.
RETRY_BACKOFF = 0.05
RETRY_BACKOFF_CAP = 0.5
RETRY_JITTER = 0.5

#: Fixed jitter seed: retry *timing* may vary, artifacts never depend
#: on it, and a fixed seed keeps chaos experiments repeatable.
JITTER_SEED = 0x5EED


def body_digest(body: bytes) -> str:
    """SHA-256 hex digest of an entry body."""
    return hashlib.sha256(body).hexdigest()


class RemoteCache:
    """HTTP client of one ``repro.cachesrv`` endpoint.

    All failure handling is internal: :meth:`fetch` returns ``None``
    and :meth:`store` returns ``False`` on any failure — callers
    (:class:`~repro.engine.cache.ArtifactCache`) treat the remote tier
    as strictly optional.
    """

    def __init__(self, base_url: str,
                 timeout: Optional[float] = None,
                 retries: Optional[int] = None,
                 breaker: Optional[CircuitBreaker] = None):
        self.base_url = base_url.rstrip("/")
        self.timeout = resolve_float(
            REMOTE_TIMEOUT_ENV, DEFAULT_REMOTE_TIMEOUT, timeout,
            positive=True)
        self.policy = RetryPolicy(
            retries=resolve_int(REMOTE_RETRIES_ENV, DEFAULT_REMOTE_RETRIES,
                                retries, minimum=0),
            backoff=RETRY_BACKOFF, backoff_cap=RETRY_BACKOFF_CAP,
            jitter=RETRY_JITTER)
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            failure_threshold=resolve_int(
                REMOTE_BREAKER_THRESHOLD_ENV, DEFAULT_BREAKER_THRESHOLD,
                positive=True),
            reset_timeout=resolve_float(
                REMOTE_BREAKER_RESET_ENV, DEFAULT_BREAKER_RESET,
                positive=True))
        self._rng = random.Random(JITTER_SEED)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.errors = 0
        self.refused = 0
        self.integrity_failures = 0
        self.bytes_fetched = 0
        self.bytes_stored = 0
        self._was_degraded = False

    # ------------------------------------------------------------------
    # public tier operations (never raise)
    # ------------------------------------------------------------------
    def fetch(self, stage_name: str, key: str,
              _refetch: bool = True) -> Optional[Dict[str, Any]]:
        """The entry record for ``(stage, key)``, or None.

        Integrity-verified: the body digest must match the
        ``X-Repro-Sha256`` it was published under and the envelope must
        name this stage and key.  A corrupt body is refetched once
        (wire corruption is transient); a second mismatch quarantines
        the entry server-side and reports a miss.
        """
        result = self._attempt("GET", self._entry_path(stage_name, key))
        if result is None:
            return None
        status, body, headers = result
        if status == 404:
            self.misses += 1
            return None
        if status != 200:
            self._count_error("fetch", stage_name, key,
                              f"unexpected status {status}")
            return None
        record = self._verify(stage_name, key, body, headers)
        if record is None:
            self.integrity_failures += 1
            self._trace_integrity(stage_name, key)
            if _refetch:
                # First mismatch may be wire corruption: one clean
                # refetch before condemning the stored entry.
                return self.fetch(stage_name, key, _refetch=False)
            # Twice corrupt = rotted at rest: quarantine server-side
            # so no peer wastes fetches on the poisoned entry.
            self._attempt("DELETE", self._entry_path(stage_name, key))
            self.misses += 1
            return None
        self.hits += 1
        self.bytes_fetched += len(body)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter("engine.cache.remote.hits").inc()
        return record

    def store(self, stage_name: str, key: str, body: bytes) -> bool:
        """Write-behind one published entry body; False on any failure."""
        result = self._attempt(
            "PUT", self._entry_path(stage_name, key), body=body,
            headers={DIGEST_HEADER: body_digest(body)})
        if result is None:
            return False
        status, _, _ = result
        if status != 200:
            self._count_error("store", stage_name, key,
                              f"unexpected status {status}")
            return False
        self.stores += 1
        self.bytes_stored += len(body)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter("engine.cache.remote.stores").inc()
        return True

    def healthz(self) -> Optional[Dict[str, Any]]:
        """The endpoint's health document, or None when unreachable."""
        result = self._attempt("GET", "/healthz")
        if result is None or result[0] != 200:
            return None
        try:
            return json.loads(result[1].decode("utf-8"))
        except ValueError:
            return None

    @property
    def degraded(self) -> bool:
        """True while the breaker is refusing remote operations."""
        return not self.breaker.closed

    def stats(self) -> Dict[str, Any]:
        """Counters + breaker snapshot for diagnostics and ``stats()``."""
        snapshot = self.breaker.snapshot()
        return {
            "url": self.base_url,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "errors": self.errors,
            "refused": self.refused,
            "integrity_failures": self.integrity_failures,
            "bytes_fetched": self.bytes_fetched,
            "bytes_stored": self.bytes_stored,
            "breaker_state": snapshot["state"],
            "breaker_opened_total": snapshot["opened_total"],
            "breaker_reattached_total": snapshot["reattached_total"],
            "degraded": self.degraded,
        }

    # ------------------------------------------------------------------
    # the fault model: breaker-gated, retried, budgeted HTTP
    # ------------------------------------------------------------------
    def _attempt(self, method: str, path: str, body: Optional[bytes] = None,
                 headers: Optional[Dict[str, str]] = None,
                 ) -> Optional[Tuple[int, bytes, Dict[str, str]]]:
        """One breaker-gated, retried operation; None = gave up."""
        tracer = get_tracer()
        last_error: Optional[RemoteCacheError] = None
        for attempt in range(1, self.policy.attempts + 1):
            if not self.breaker.allow():
                self.refused += 1
                self._publish_degraded()
                return None
            started = time.monotonic()
            try:
                result = self._request(method, path, body, headers)
            except RemoteCacheError as exc:
                last_error = exc
                self.breaker.record_failure()
                self._publish_degraded()
                if tracer.enabled:
                    tracer.counter("engine.cache.remote.errors").inc()
                    tracer.event("engine.cache.remote.error",
                                 method=method, path=path, code=exc.code,
                                 attempt=attempt, message=str(exc))
                if attempt < self.policy.attempts:
                    time.sleep(self.policy.delay(attempt, self._rng))
                continue
            self.breaker.record_success()
            self._publish_degraded()
            if tracer.enabled:
                tracer.histogram("engine.cache.remote.op_s",
                                 TIME_BUCKETS).observe(
                    time.monotonic() - started)
            return result
        if last_error is not None:
            self.errors += 1
        return None

    def _request(self, method: str, path: str, body: Optional[bytes],
                 headers: Optional[Dict[str, str]],
                 ) -> Tuple[int, bytes, Dict[str, str]]:
        """One raw HTTP exchange, normalised to the remote error family.

        HTTP status responses below 500 are *answers* (a 404 miss is a
        healthy endpoint), returned as data; 5xx and every transport
        failure (refused connection, timeout, truncated response) raise
        the matching :class:`~repro.errors.RemoteCacheError` subclass.
        """
        request = urllib.request.Request(
            self.base_url + path, data=body, method=method,
            headers=dict(headers or {}))
        try:
            try:
                with urllib.request.urlopen(
                        request, timeout=self.timeout) as response:
                    payload = response.read()
                    status = response.status
                    response_headers = dict(response.headers.items())
            except urllib.error.HTTPError as exc:
                # Status errors still carry a readable body.
                payload = exc.read()
                status = exc.code
                response_headers = dict(exc.headers.items())
        except (socket.timeout, TimeoutError) as exc:
            raise RemoteCacheTimeout(
                f"{method} {path} exceeded {self.timeout:g}s "
                f"budget") from exc
        except urllib.error.URLError as exc:
            reason = getattr(exc, "reason", exc)
            if isinstance(reason, (socket.timeout, TimeoutError)):
                raise RemoteCacheTimeout(
                    f"{method} {path} exceeded {self.timeout:g}s "
                    f"budget") from exc
            raise RemoteCacheUnavailable(
                f"{method} {path} failed: {reason}") from exc
        except (ConnectionError, http.client.HTTPException,
                OSError) as exc:
            # Dropped mid-response, truncated chunk, bad status line...
            raise RemoteCacheUnavailable(
                f"{method} {path} failed: "
                f"{type(exc).__name__}: {exc}") from exc
        if status >= 500:
            raise RemoteCacheUnavailable(
                f"{method} {path} returned {status}")
        return status, payload, response_headers

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    def _verify(self, stage_name: str, key: str, body: bytes,
                headers: Dict[str, str]) -> Optional[Dict[str, Any]]:
        """Digest + envelope verification; None = corrupt."""
        claimed = ""
        for name, value in headers.items():
            if name.lower() == DIGEST_HEADER.lower():
                claimed = value.strip().lower()
                break
        if not claimed or body_digest(body) != claimed:
            return None
        try:
            record = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None
        if (not isinstance(record, dict)
                or record.get("stage") != stage_name
                or record.get("key") != key
                or "artifact" not in record):
            return None
        return record

    # ------------------------------------------------------------------
    # observability plumbing
    # ------------------------------------------------------------------
    def _publish_degraded(self) -> None:
        """Flip the degraded gauge/events on breaker state changes."""
        degraded = self.degraded
        if degraded == self._was_degraded:
            return
        self._was_degraded = degraded
        tracer = get_tracer()
        if tracer.enabled:
            tracer.gauge("engine.cache.remote.degraded").set(
                1.0 if degraded else 0.0)
            tracer.event(
                "engine.cache.remote.degraded" if degraded
                else "engine.cache.remote.reattached",
                url=self.base_url, **self.breaker.snapshot())

    def _count_error(self, op: str, stage_name: str, key: str,
                     message: str) -> None:
        self.errors += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter("engine.cache.remote.errors").inc()
            tracer.event("engine.cache.remote.error", op=op,
                         stage=stage_name, key=key, message=message)

    def _trace_integrity(self, stage_name: str, key: str) -> None:
        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter("engine.cache.remote.integrity").inc()
            tracer.event("engine.cache.remote.integrity",
                         stage=stage_name, key=key)

    @staticmethod
    def _entry_path(stage_name: str, key: str) -> str:
        return f"/artifacts/{stage_name}/{key}"


def resolve_remote_cache(remote=None) -> Optional[RemoteCache]:
    """Resolve the remote tier: explicit > ``REPRO_REMOTE_CACHE`` > off.

    ``remote`` may be a ready :class:`RemoteCache`, a base URL string,
    or ``None`` (consult the environment; unset/empty disables the
    tier).
    """
    if isinstance(remote, RemoteCache):
        return remote
    url = remote if remote is not None else os.environ.get(
        REMOTE_CACHE_ENV, "")
    if not url:
        return None
    return RemoteCache(str(url))
