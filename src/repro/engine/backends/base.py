"""The execution-backend protocol the scheduler drives.

The engine split (1.5): :class:`repro.engine.scheduler.Scheduler` owns
every *semantic* concern — fingerprinting, cache and single-flight,
dependency tracking, admission, retries and timeouts, ``on_error``
modes, journaling, cancellation — while an :class:`ExecutionBackend`
owns exactly one *mechanical* concern: given a ready
:class:`TaskExecution`, produce a :class:`TaskResult`.  The protocol is
deliberately narrow (``submit`` / ``poll`` / ``shutdown`` plus two
capability flags), so a new backend cannot accidentally reimplement —
or skip — scheduler semantics.  The scheduler never submits more than
:attr:`ExecutionBackend.workers` tasks at once, so a backend starts
every task it accepts and keeps no queue of its own.

Capability flags tell the scheduler which failure-domain features are
physically possible on a backend:

``supports_preemption``
    The backend can kill a running task (:meth:`preempt`), so the
    scheduler enforces :class:`~repro.resilience.retry.RetryPolicy`
    timeouts.  In-process backends cannot preempt a compute function.
``remote_workers``
    Tasks run in other processes that can die independently
    (``worker_kill`` faults are drawn, crashes are budgeted and
    surviving work is unaffected).
"""

from __future__ import annotations

import time
import traceback as traceback_module
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import InjectedFault

#: Result statuses a backend can report.
RESULT_DONE = "done"            # artifact computed by this backend
RESULT_ERROR = "error"          # compute raised (exception attached)
RESULT_CRASHED = "crashed"      # the worker died; no exception exists


@dataclass
class TaskExecution:
    """Everything a backend needs to run one ready task once.

    The scheduler resolves dependencies to concrete artefacts before
    submitting, so a backend never touches the task graph; ``fault``
    carries a parent-drawn injection directive (``"kill"`` or
    ``"exc:<message>"`` — see :mod:`repro.resilience.faults`).
    """

    task_id: str
    stage: str
    payload: Any
    key: str
    deps: Dict[str, Any]
    attempt: int = 1
    observe: bool = False
    fault: Optional[str] = None


@dataclass
class TaskResult:
    """One task outcome reported by a backend.

    ``wall_time``/``cpu_time`` cover the compute itself (not queueing);
    ``started_at`` is a ``time.perf_counter`` timestamp of compute
    start (monotonic clocks are process-consistent on the platforms the
    pool runs on).
    """

    task_id: str
    status: str
    artifact: Any = None
    worker: str = ""
    wall_time: float = 0.0
    cpu_time: float = 0.0
    started_at: float = -1.0
    error: Optional[BaseException] = None
    error_traceback: str = ""
    observed: Optional[Dict[str, Any]] = None


#: Characters of formatted traceback kept in a failed task's result.
TRACEBACK_TAIL = 1500


def _traceback_tail(exc: BaseException) -> str:
    """Last ``TRACEBACK_TAIL`` characters of the formatted traceback."""
    try:
        text = "".join(traceback_module.format_exception(
            type(exc), exc, exc.__traceback__))
    except Exception:  # pragma: no cover - formatting never critical
        text = repr(exc)
    return text[-TRACEBACK_TAIL:]


def run_stage(execution: TaskExecution) -> TaskResult:
    """Execute one task in the calling process.

    The one stage runner of every backend: the serial backend calls it
    in the scheduler's process, a pool worker in its own.  Uses the
    ambient tracer (spans nest under whatever is active); honours an
    ``"exc:"`` fault directive.  Exceptions are captured into the
    result with their traceback tail, never raised — the scheduler owns
    retry policy.
    """
    from repro.engine.stages import get_stage
    from repro.observe import get_tracer

    tracer = get_tracer()
    started = time.perf_counter()
    cpu0 = time.process_time()
    try:
        stage = get_stage(execution.stage)
        with tracer.span("engine.compute", task=execution.task_id,
                         stage=execution.stage):
            fault = execution.fault
            if fault is not None and fault.startswith("exc:"):
                raise InjectedFault(fault[4:])
            artifact = stage.compute(execution.payload, execution.deps)
    except Exception as exc:
        return TaskResult(
            task_id=execution.task_id, status=RESULT_ERROR,
            wall_time=time.perf_counter() - started,
            cpu_time=time.process_time() - cpu0,
            started_at=started, error=exc,
            error_traceback=_traceback_tail(exc))
    return TaskResult(
        task_id=execution.task_id, status=RESULT_DONE, artifact=artifact,
        wall_time=time.perf_counter() - started,
        cpu_time=time.process_time() - cpu0,
        started_at=started)


class ExecutionBackend:
    """Base class / protocol of every execution backend.

    Lifecycle: the engine calls :meth:`start` once (idempotent) before
    the first run, the scheduler ``submit``s ready tasks and ``poll``s
    for results until the graph drains, :meth:`reset` clears per-run
    state between runs, and :meth:`shutdown` releases everything.
    """

    #: Backend identifier (manifest field, ``REPRO_BACKEND`` value).
    name: str = "backend"
    #: Concurrent task capacity (manifest ``max_workers``).
    workers: int = 1
    #: Scheduler enforces RetryPolicy.timeout via :meth:`preempt`.
    supports_preemption: bool = False
    #: Tasks run in processes that can die independently.
    remote_workers: bool = False

    def __init__(self) -> None:
        #: Pickled payload bytes moved across process boundaries (zero
        #: for in-process backends).
        self.transfer_bytes = 0

    # -- lifecycle -----------------------------------------------------
    def start(self, cache) -> None:
        """Bind to the engine's cache; idempotent."""

    def reset(self) -> None:
        """Drop per-run state; keep warm resources."""

    def shutdown(self) -> None:
        """Release workers/queues; the backend is dead afterwards."""

    # -- the work loop -------------------------------------------------
    def submit(self, execution: TaskExecution) -> None:
        """Start one ready task; the scheduler never exceeds ``workers``."""
        raise NotImplementedError

    def poll(self, timeout: Optional[float]) -> List[TaskResult]:
        """Return available results, waiting up to ``timeout`` seconds.

        May return an empty list on timeout.  Backends that compute in
        the calling process compute in :meth:`submit` and report the
        result here.
        """
        raise NotImplementedError

    # -- cancellation / preemption ------------------------------------
    def abort(self) -> None:
        """Forcibly stop whatever is still running (best effort)."""

    def preempt(self, task_id: str) -> bool:
        """Kill a running task (timeout enforcement); True on success.

        Only meaningful when :attr:`supports_preemption` is set.  After
        a successful preempt the backend must not report a result for
        the task.
        """
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} name={self.name!r} " \
               f"workers={self.workers}>"

