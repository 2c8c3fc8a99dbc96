"""Exception hierarchy for the reproduction library.

Every error raised by the library derives from :class:`ReproError` so
that callers can catch library failures without masking programming
errors.

The taxonomy is *machine readable*: every subclass carries a stable
``code`` string (dotted, namespaced, part of the public contract — a
client may branch on it) and a ``retryable`` flag saying whether the
same request can sensibly be retried (transient overload, lock
contention, interrupted runs) or is permanently wrong (bad input,
design-rule violation).  :meth:`ReproError.to_dict` renders the
``{type, code, message, retryable}`` record used by the service's JSON
error bodies and by :class:`~repro.engine.manifest.TaskFailure`
manifest entries.
"""

from __future__ import annotations

from typing import Any, Dict


class ReproError(Exception):
    """Base class for all library errors.

    Subclasses override :attr:`code` (stable machine-readable
    identifier) and :attr:`retryable` (True when the same request may
    succeed later without modification).
    """

    code: str = "repro.error"
    retryable: bool = False

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable record: ``{type, code, message, retryable}``."""
        return {
            "type": type(self).__name__,
            "code": self.code,
            "message": str(self),
            "retryable": self.retryable,
        }


def error_code(exc: BaseException) -> str:
    """The stable code of any exception (library or foreign)."""
    if isinstance(exc, ReproError):
        return exc.code
    return f"python.{type(exc).__name__}"


def error_payload(exc: BaseException) -> Dict[str, Any]:
    """A :meth:`ReproError.to_dict`-shaped record for any exception."""
    if isinstance(exc, ReproError):
        return exc.to_dict()
    return {
        "type": type(exc).__name__,
        "code": error_code(exc),
        "message": str(exc),
        "retryable": False,
    }


class ConvergenceError(ReproError):
    """A nonlinear solver failed to converge.

    Carries diagnostic context (iteration count and final residual) so that
    failures can be triaged without re-running the solver.
    """

    code = "solver.convergence"
    retryable = False

    def __init__(self, message: str, iterations: int = -1,
                 residual: float = float("nan")):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual

    def __str__(self) -> str:  # pragma: no cover - formatting only
        base = super().__str__()
        return (f"{base} (iterations={self.iterations}, "
                f"residual={self.residual:.3e})")


class ConfigError(ReproError):
    """An environment variable or explicit setting is unusable.

    Raised at resolution time (startup), before the bad value can
    propagate into a lock wait loop or a drain window.
    """

    code = "config.invalid"
    retryable = False


class TaskTimeoutError(ReproError):
    """A task exceeded its wall-time budget (``REPRO_TASK_TIMEOUT``)."""

    code = "engine.task_timeout"
    retryable = True


class CacheLockTimeout(ReproError):
    """An advisory cache lock could not be acquired within its timeout.

    Raised by :class:`repro.engine.locks.FileLock` when another process
    holds the lock past ``REPRO_LOCK_TIMEOUT`` seconds — the caller can
    degrade (compute without the lock, skip maintenance) instead of
    blocking a run forever on a wedged peer.
    """

    code = "cache.lock_timeout"
    retryable = True


class RunInterrupted(ReproError):
    """A run was stopped by SIGINT/SIGTERM (or a deadline) before completing.

    Carries the partial :class:`~repro.engine.manifest.RunManifest`
    (``status == "interrupted"``) so the caller can flush it alongside
    the run journal; ``python -m repro.flows resume <run_id>`` picks the
    run back up from exactly what the journal + content-addressed cache
    preserved.
    """

    code = "run.interrupted"
    retryable = True

    def __init__(self, message: str, manifest=None, run_id: str = ""):
        super().__init__(message)
        self.manifest = manifest
        self.run_id = run_id


class WorkerCrashError(ReproError):
    """A pool worker died (SIGKILL, OOM...) while computing a task."""

    code = "engine.worker_crash"
    retryable = True


class InjectedFault(ReproError):
    """A failure raised on purpose by :mod:`repro.resilience.faults`.

    Distinguishable from organic failures so tests (and trace readers)
    can tell an exercised recovery path from a real regression.
    """

    code = "test.injected_fault"
    retryable = True


class EngineRunError(ReproError):
    """Aggregated failure report of an ``on_error="continue"`` run.

    Carries the run's :class:`~repro.engine.manifest.TaskFailure`
    entries so callers can triage without re-parsing the message.
    """

    code = "engine.run_failed"
    retryable = False

    def __init__(self, message: str, failures=()):
        super().__init__(message)
        self.failures = tuple(failures)

    def __str__(self) -> str:
        base = super().__str__()
        if not self.failures:
            return base
        lines = [base]
        for failure in self.failures:
            lines.append(f"  {failure.status:<7} {failure.task_id} "
                         f"[{failure.stage}] {failure.error_type}: "
                         f"{failure.message}")
        return "\n".join(lines)


class MeshError(ReproError):
    """Invalid mesh specification (non-monotonic points, empty region...)."""

    code = "tcad.mesh"
    retryable = False


class MaterialError(ReproError):
    """Unknown material or invalid material parameter."""

    code = "materials.invalid"
    retryable = False


class NetlistError(ReproError):
    """Malformed netlist: dangling node, duplicate element, missing ground."""

    code = "spice.netlist"
    retryable = False


class SingularMatrixError(ReproError):
    """The MNA system is singular (floating node or short loop)."""

    code = "spice.singular_matrix"
    retryable = False


class ExtractionError(ReproError):
    """Parameter extraction failed (bad targets, optimizer failure)."""

    code = "extraction.failed"
    retryable = False


class LayoutError(ReproError):
    """Design-rule violation or impossible layout request."""

    code = "layout.violation"
    retryable = False


class CellLibraryError(ReproError):
    """Unknown cell or malformed cell topology."""

    code = "cells.unknown"
    retryable = False


class SimulationError(ReproError):
    """A simulation request was invalid (bad sweep, missing analysis)."""

    code = "simulation.invalid"
    retryable = False


# ----------------------------------------------------------------------
# remote-cache-tier errors (repro.engine.remote / repro.cachesrv)
# ----------------------------------------------------------------------
class RemoteCacheError(ReproError):
    """Base class of remote cache tier failures.

    Every subclass is transient by design: the remote tier is an
    *accelerator*, never a correctness dependency — a failed remote
    operation degrades the run to local-only computation, and the same
    request can sensibly be retried once the endpoint recovers.
    """

    code = "cache.remote.error"
    retryable = True


class RemoteCacheTimeout(RemoteCacheError):
    """A remote cache operation exceeded its ``REPRO_REMOTE_TIMEOUT``
    budget (slow endpoint, delayed response, black-holed packets)."""

    code = "cache.remote.timeout"
    retryable = True


class RemoteCacheIntegrityError(RemoteCacheError):
    """A fetched remote entry failed integrity verification.

    The body's recomputed SHA-256 did not match the digest it was
    published with (or the envelope names the wrong key/stage) — the
    fetch is retried once (wire corruption is transient), and a second
    mismatch quarantines the entry server-side and is treated as a
    miss.  A corrupt remote entry must never poison a run.
    """

    code = "cache.remote.integrity"
    retryable = True


class RemoteCacheUnavailable(RemoteCacheError):
    """The remote cache endpoint is unreachable or refusing work.

    Raised for connection failures and 5xx responses; consecutive
    occurrences trip the tier's circuit breaker, after which the
    client degrades to local-only operation and re-probes the
    endpoint once per breaker reset window.
    """

    code = "cache.remote.unavailable"
    retryable = True


# ----------------------------------------------------------------------
# service-layer errors (repro.serve)
# ----------------------------------------------------------------------
class ServeError(ReproError):
    """Base class of service-layer failures.

    ``http_status`` is the HTTP status the service maps the error to;
    ``retry_after`` (seconds, or ``None``) feeds the ``Retry-After``
    response header when set.
    """

    code = "serve.error"
    retryable = False
    http_status: int = 500

    def __init__(self, message: str, retry_after=None):
        super().__init__(message)
        self.retry_after = retry_after


class InvalidRequest(ServeError):
    """The request body or headers cannot describe a valid run."""

    code = "serve.bad_request"
    retryable = False
    http_status = 400


class AdmissionRejected(ServeError):
    """Load shedding: the bounded request queue is full.

    ``retry_after`` is derived from the observed service time, so a
    well-behaved client backs off proportionally to the actual load.
    """

    code = "serve.overloaded"
    http_status = 429
    retryable = True


class QuotaExceeded(ServeError):
    """A tenant exhausted its token-bucket request quota."""

    code = "serve.quota_exceeded"
    http_status = 429
    retryable = True


class DeadlineExceeded(ServeError):
    """A request's deadline expired before its run completed.

    Carries the durable ``run_id`` so the client can retry the same
    request: the resumed run trusts everything the journal and the
    content-addressed cache already preserved.
    """

    code = "serve.deadline_exceeded"
    http_status = 504
    retryable = True

    def __init__(self, message: str, run_id: str = "", retry_after=None):
        super().__init__(message, retry_after=retry_after)
        self.run_id = run_id

    def to_dict(self) -> Dict[str, Any]:
        record = super().to_dict()
        record["run_id"] = self.run_id
        return record


class ServiceDraining(ServeError):
    """The service received SIGTERM and no longer admits new work."""

    code = "serve.draining"
    http_status = 503
    retryable = True
