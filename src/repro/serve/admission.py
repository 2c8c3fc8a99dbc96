"""Admission control: bounded queue, load shedding, tenant quotas.

The service's first robustness layer.  Three mechanisms, all cheap and
all decided *before* any compute is spent on a request:

* a **bounded request queue** — at most ``REPRO_SERVE_QUEUE`` requests
  may be in the system (queued + running); request N+1 is shed with
  HTTP 429 and a ``Retry-After`` derived from the *observed* service
  time, so clients back off proportionally to actual load instead of
  hammering a fixed interval;
* **token-bucket quotas per tenant** — a tenant sustains
  ``REPRO_SERVE_TENANT_RPS`` requests/second with bursts up to
  ``REPRO_SERVE_TENANT_BURST``; an exhausted bucket rejects with the
  exact wait until the next token, leaving other tenants untouched;
* a **service-time estimator** — an exponentially weighted moving
  average of completed request durations that turns "the queue is
  full" into an honest number of seconds to stay away.

Everything here is synchronous and lock-guarded (the asyncio handlers
call it from one event loop, the worker threads report completions
from many), with injectable clocks so tests are deterministic.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable, Dict, Optional

from repro.errors import AdmissionRejected

#: Fallback service-time guess before any request completed [s].
INITIAL_SERVICE_TIME_S = 5.0

#: EWMA smoothing factor (weight of the newest observation).
EWMA_ALPHA = 0.3


class ServiceTimeEstimator:
    """EWMA of observed request service times, feeding Retry-After."""

    def __init__(self, initial: float = INITIAL_SERVICE_TIME_S,
                 alpha: float = EWMA_ALPHA):
        self._lock = threading.Lock()
        self.alpha = alpha
        self._ewma = float(initial)
        self.samples = 0

    def observe(self, service_s: float) -> None:
        """Fold one completed request's duration into the estimate."""
        with self._lock:
            if self.samples == 0:
                self._ewma = float(service_s)
            else:
                self._ewma = (self.alpha * float(service_s)
                              + (1.0 - self.alpha) * self._ewma)
            self.samples += 1

    @property
    def estimate(self) -> float:
        """Current smoothed service time [s]."""
        return self._ewma

    def retry_after(self, depth: int, workers: int) -> int:
        """Honest back-off hint for a shed request [whole seconds].

        ``depth`` requests are ahead of the client across ``workers``
        lanes; one service time per queue *round* must drain before a
        slot opens.  Clamped to at least 1 s (the header is an
        integer) and at most an hour (a hint, not a ban).
        """
        rounds = max(depth, 1) / max(workers, 1)
        return int(min(max(math.ceil(rounds * self._ewma), 1), 3600))


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, ``burst`` capacity.

    ``clock`` is injectable (monotonic seconds) so tests can step time
    deterministically.
    """

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float] = time.monotonic):
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()
        self._lock = threading.Lock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(self.burst,
                           self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now

    def try_take(self, tokens: float = 1.0) -> bool:
        """Consume ``tokens`` if available; False when exhausted."""
        with self._lock:
            self._refill()
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False

    def wait_time(self, tokens: float = 1.0) -> float:
        """Seconds until ``tokens`` would be available (0 = now)."""
        with self._lock:
            self._refill()
            missing = tokens - self._tokens
            return max(missing, 0.0) / self.rate

    @property
    def available(self) -> float:
        with self._lock:
            self._refill()
            return self._tokens


class AdmissionTicket:
    """Proof that one request holds one slot of the bounded queue."""

    __slots__ = ("controller", "admitted_at", "released")

    def __init__(self, controller: "AdmissionController",
                 admitted_at: float):
        self.controller = controller
        self.admitted_at = admitted_at
        self.released = False


class AdmissionController:
    """The bounded request queue with load-shedding.

    ``limit`` caps requests in the system.  :meth:`admit` returns an
    :class:`AdmissionTicket` or raises
    :class:`~repro.errors.AdmissionRejected` carrying the computed
    ``Retry-After``.  Completion flows back through :meth:`release`,
    which also feeds the service-time estimator.
    """

    def __init__(self, limit: int, workers: int,
                 estimator: Optional[ServiceTimeEstimator] = None,
                 clock: Callable[[], float] = time.monotonic):
        self.limit = int(limit)
        self.workers = int(workers)
        self.estimator = estimator or ServiceTimeEstimator()
        self._clock = clock
        self._lock = threading.Lock()
        self.inflight = 0
        self.admitted_total = 0
        self.shed_total = 0
        #: Consecutive sheds since the last successful admission
        #: (feeds the health ladder's overload detection).
        self.consecutive_sheds = 0

    def admit(self) -> AdmissionTicket:
        """Take a queue slot or shed with an honest Retry-After."""
        with self._lock:
            if self.inflight >= self.limit:
                self.shed_total += 1
                self.consecutive_sheds += 1
                retry_after = self.estimator.retry_after(
                    self.inflight, self.workers)
                raise AdmissionRejected(
                    f"request queue full ({self.inflight}/{self.limit} "
                    f"in flight); retry in ~{retry_after}s",
                    retry_after=retry_after)
            self.inflight += 1
            self.admitted_total += 1
            self.consecutive_sheds = 0
            return AdmissionTicket(self, self._clock())

    def release(self, ticket: AdmissionTicket) -> float:
        """Return a slot; returns the request's service time [s]."""
        if ticket.released:
            return 0.0
        ticket.released = True
        service_s = max(self._clock() - ticket.admitted_at, 0.0)
        with self._lock:
            self.inflight = max(self.inflight - 1, 0)
        self.estimator.observe(service_s)
        return service_s

    def snapshot(self) -> Dict[str, float]:
        """Queue counters for /metrics and the health ladder."""
        with self._lock:
            return {
                "limit": self.limit,
                "inflight": self.inflight,
                "admitted_total": self.admitted_total,
                "shed_total": self.shed_total,
                "consecutive_sheds": self.consecutive_sheds,
                "service_time_ewma_s": self.estimator.estimate,
            }
