"""Three-state circuit breaker for flaky dependencies.

The remote cache tier (and any future network dependency) talks to an
endpoint that can fail *slowly* — every timeout costs a full
``REPRO_REMOTE_TIMEOUT`` budget.  A :class:`CircuitBreaker` bounds that
cost: after ``failure_threshold`` consecutive failures the breaker
*opens* and every call is refused instantly; after ``reset_timeout``
seconds it goes *half-open* and admits exactly one probe call; the
probe's outcome decides between closing the circuit (dependency
recovered — normal operation resumes) and re-opening it (another full
``reset_timeout`` of instant refusals).

So a dead endpoint costs one failed probe per reset window instead of
one timeout per task — the difference between a run that finishes a few
seconds late and one that spends minutes waiting on a black hole.

The breaker is deliberately mechanism-only: it never sleeps, never
retries, never knows what a "call" is.  Callers ask :meth:`allow`
before attempting the operation and report the outcome through
:meth:`record_success` / :meth:`record_failure`.  The clock is
injectable so the state machine is testable (and property-testable)
without real waiting.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from repro.config import require_finite_float, require_int

#: Breaker states.
STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half-open"

#: Consecutive failures that trip the breaker (default).
DEFAULT_FAILURE_THRESHOLD = 5

#: Seconds an open breaker refuses calls before probing (default).
DEFAULT_RESET_TIMEOUT = 10.0


class CircuitBreaker:
    """Consecutive-failure breaker with a single half-open probe.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures (in ``closed``) that open the circuit.
    reset_timeout:
        Seconds an open circuit refuses every call before admitting
        one half-open probe.
    clock:
        Monotonic time source (injectable for tests).

    Thread-safe: the service layer shares one remote-cache client
    between worker threads.
    """

    def __init__(self,
                 failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
                 reset_timeout: float = DEFAULT_RESET_TIMEOUT,
                 clock: Callable[[], float] = time.monotonic):
        self.failure_threshold = require_int(
            "failure_threshold", failure_threshold, positive=True)
        self.reset_timeout = require_finite_float(
            "reset_timeout", reset_timeout, positive=True)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = STATE_CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        #: True while the single half-open probe is outstanding.
        self._probe_inflight = False
        self.opened_total = 0
        self.reattached_total = 0

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """Current state (``closed`` / ``open`` / ``half-open``).

        An ``open`` circuit whose reset window has elapsed reports
        ``half-open`` — the state a call at this instant would see.
        """
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if (self._state == STATE_OPEN
                and self._clock() - self._opened_at >= self.reset_timeout):
            return STATE_HALF_OPEN
        return self._state

    @property
    def closed(self) -> bool:
        return self.state == STATE_CLOSED

    def snapshot(self) -> Dict[str, object]:
        """State + counters for metrics/diagnostics."""
        with self._lock:
            return {
                "state": self._state_locked(),
                "consecutive_failures": self._consecutive_failures,
                "opened_total": self.opened_total,
                "reattached_total": self.reattached_total,
            }

    # ------------------------------------------------------------------
    # the protocol: allow -> attempt -> record
    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """May the caller attempt the operation right now?

        ``closed``: always.  ``open``: never, until ``reset_timeout``
        elapses.  ``half-open``: exactly one caller gets True (the
        probe); everyone else is refused until the probe's outcome is
        recorded.
        """
        with self._lock:
            state = self._state_locked()
            if state == STATE_CLOSED:
                return True
            if state == STATE_HALF_OPEN:
                if self._probe_inflight:
                    return False
                self._state = STATE_HALF_OPEN
                self._probe_inflight = True
                return True
            return False

    def record_success(self) -> None:
        """The attempted operation succeeded: close the circuit."""
        with self._lock:
            if self._state != STATE_CLOSED:
                self.reattached_total += 1
            self._state = STATE_CLOSED
            self._consecutive_failures = 0
            self._probe_inflight = False
            self._opened_at = None

    def record_failure(self) -> None:
        """The attempted operation failed.

        In ``closed``, counts toward the threshold; from ``half-open``
        (a failed probe) the circuit re-opens for a fresh reset window.
        """
        with self._lock:
            if self._state == STATE_HALF_OPEN or self._probe_inflight:
                self._trip_locked()
                return
            if self._state == STATE_OPEN:
                # Late failure report from before the trip: no-op.
                return
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.failure_threshold:
                self._trip_locked()

    def _trip_locked(self) -> None:
        self._state = STATE_OPEN
        self._opened_at = self._clock()
        self._probe_inflight = False
        self._consecutive_failures = self.failure_threshold
        self.opened_total += 1
