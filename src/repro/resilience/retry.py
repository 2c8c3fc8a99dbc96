"""Retry policies for engine tasks: capped exponential backoff.

A :class:`RetryPolicy` bundles the three knobs of task-level fault
tolerance: how many extra attempts a failing task gets (``retries``,
env ``REPRO_TASK_RETRIES``), how long to wait between attempts
(``backoff`` doubling per attempt, capped at ``backoff_cap``), and an
optional per-task wall-time budget (``timeout``, env
``REPRO_TASK_TIMEOUT``) enforced by the parallel engine (a serial
in-process run cannot preempt a compute function).

Network callers (the remote cache tier) additionally set ``jitter``:
a fraction of each delay randomised away so N clients that fail
together do not retry together (a thundering herd against a recovering
endpoint).  A jittered delay always stays within ``[backoff,
backoff_cap]`` — jitter de-synchronises retries, it never makes one
earlier than the base delay or later than the cap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.config import (
    require_finite_float,
    require_int,
    resolve_float,
    resolve_int,
)
from repro.errors import ReproError

#: Extra attempts a failed task gets (default 0 — fail on first error).
TASK_RETRIES_ENV = "REPRO_TASK_RETRIES"

#: Per-task wall-time budget in seconds (default: none).
TASK_TIMEOUT_ENV = "REPRO_TASK_TIMEOUT"


@dataclass(frozen=True)
class RetryPolicy:
    """How the engine retries failing tasks.

    Attributes
    ----------
    retries:
        Extra attempts after the first failure (0 = no retry).
    backoff:
        Delay before the first retry [s]; doubles per further attempt.
    backoff_cap:
        Upper bound on any single backoff delay [s].
    timeout:
        Per-task wall-time budget [s]; ``None`` disables.  Enforced on
        preemption-capable backends (the pool kills and respawns the
        overdue worker); in-process backends cannot preempt a running
        compute function.
    jitter:
        Fraction of each backoff delay randomised away (``0`` = fully
        deterministic delays, ``0.5`` = each delay lands uniformly in
        the upper half of its exponential rung).  The jittered delay is
        always clamped to ``[backoff, backoff_cap]``.
    """

    retries: int = 0
    backoff: float = 0.05
    backoff_cap: float = 2.0
    timeout: Optional[float] = None
    jitter: float = 0.0

    def __post_init__(self) -> None:
        require_int("retries", self.retries, minimum=0)
        if self.backoff < 0 or self.backoff_cap < 0:
            raise ReproError("backoff delays must be >= 0")
        if self.timeout is not None:
            # A NaN budget never expires and an infinite one overflows
            # the pool's wait; both are ConfigErrors like any setting.
            require_finite_float("timeout", self.timeout, positive=True)
        if not 0.0 <= self.jitter <= 1.0:
            raise ReproError(f"jitter must be within [0, 1], "
                             f"got {self.jitter}")

    @property
    def attempts(self) -> int:
        """Total attempts a task gets (first try + retries)."""
        return self.retries + 1

    def delay(self, attempt: int,
              rng: Optional[random.Random] = None) -> float:
        """Backoff before retry number ``attempt`` (1-based).

        With ``jitter`` set and an ``rng`` supplied, the exponential
        rung ``min(cap, backoff * 2**(attempt-1))`` is scaled down by
        up to ``jitter`` of itself, then clamped back into
        ``[backoff, backoff_cap]`` so a jittered retry never fires
        before the base delay nor after the cap.  Without an ``rng``
        the delay is the deterministic rung (engine-task retries stay
        reproducible).
        """
        if self.backoff <= 0:
            return 0.0
        rung = min(self.backoff_cap, self.backoff * (2.0 ** (attempt - 1)))
        if self.jitter <= 0 or rng is None:
            return rung
        scaled = rung * (1.0 - self.jitter * rng.random())
        return min(self.backoff_cap, max(self.backoff, scaled))

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        """Policy resolved from ``REPRO_TASK_RETRIES`` / ``_TIMEOUT``."""
        return cls(retries=resolve_int(TASK_RETRIES_ENV, 0, minimum=0),
                   timeout=resolve_float(TASK_TIMEOUT_ENV, None,
                                         positive=True))


def resolve_retry_policy(policy: Optional[RetryPolicy]) -> RetryPolicy:
    """Explicit policy, else the env-resolved default."""
    return policy if policy is not None else RetryPolicy.from_env()
