"""Persistent warm-worker pool over per-worker pipes.

The pre-1.5 engine created a cold :class:`ProcessPoolExecutor` per run
and pickled every payload through it; this backend keeps long-lived
worker processes that import the pipeline modules once and then loop
over a duplex :func:`multiprocessing.Pipe`, exchanging pickled
messages.  The scheduler submits at most :attr:`PoolBackend.workers`
tasks at a time, so every submitted task goes straight to a free
worker; the pool keeps no queue.

Design points the scheduler's failure domain relies on:

* **depth-1 dispatch** — a worker holds at most one task, so when it
  dies the backend knows *exactly* which task was lost (the pre-1.5
  pool declared every in-flight future lost on a single
  ``BrokenProcessPool``);
* **per-worker pipes** — a SIGKILL mid-message corrupts only that
  worker's pipe (observed as EOF → a ``crashed`` result), never a
  shared queue;
* **surgical preemption** — a task over its timeout budget is killed
  by killing *its* worker; other running tasks are untouched (the old
  pool killed and rebuilt everything);
* workers are respawned immediately after any death, so the pool stays
  at width; the scheduler counts crash/preempt events into
  ``manifest.pool_rebuilds``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import weakref
from multiprocessing import connection as mp_connection
from typing import Any, List, Optional

from repro.engine.backends.base import (
    ExecutionBackend,
    RESULT_CRASHED,
    RESULT_ERROR,
    TaskExecution,
    TaskResult,
    run_stage,
)
from repro.errors import ReproError

#: Seconds a worker gets to exit after the stop sentinel.
STOP_GRACE_S = 0.5


def _dumps(message: Any) -> bytes:
    return pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)


def _pool_worker_main(conn, parent_conn) -> None:  # pragma: no cover
    """Task loop of one persistent worker (runs in the child)."""
    # covered through subprocess execution, invisible to coverage
    try:
        parent_conn.close()
    except OSError:
        pass
    try:
        from repro.observe import reset as observe_reset
        observe_reset()  # drop any tracer inherited across the fork
    except Exception:
        pass
    try:
        import repro.engine.pipeline  # noqa: F401  (registers stages)
    except ImportError:
        pass
    from repro.observe import Tracer, activate
    from repro.resilience.faults import kill_current_process
    while True:
        try:
            payload = conn.recv_bytes()
        except (EOFError, OSError):
            break
        try:
            message = pickle.loads(payload)
        except Exception:
            break
        if not isinstance(message, TaskExecution):  # the stop sentinel
            break
        if message.fault == "kill":
            kill_current_process()
        if message.observe:
            tracer = Tracer()
            with activate(tracer):
                result = run_stage(message)
            result.observed = tracer.export_records()
        else:
            result = run_stage(message)
        result.worker = str(os.getpid())
        try:
            out = _dumps(result)
        except Exception as exc:
            text = f"result serialisation failed: {exc!r}"
            out = _dumps(TaskResult(
                task_id=message.task_id, status=RESULT_ERROR,
                worker=result.worker, error=ReproError(text),
                error_traceback=text))
        try:
            conn.send_bytes(out)
        except (BrokenPipeError, OSError):
            break
    try:
        conn.close()
    except OSError:
        pass


class _PoolWorker:
    """One persistent worker process plus its pipe and assigned task."""

    __slots__ = ("process", "conn", "busy", "pid")

    def __init__(self, context) -> None:
        self.conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_pool_worker_main, args=(child_conn, self.conn),
            daemon=True)
        self.process.start()
        child_conn.close()
        self.pid = self.process.pid
        #: Id of the task this worker is computing (None = idle).
        self.busy: Optional[str] = None

    def kill(self) -> None:
        try:
            self.process.kill()
            self.process.join(timeout=5.0)
        except (OSError, ValueError):  # pragma: no cover - already dead
            pass
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


def _shutdown_workers(workers: List[_PoolWorker]) -> None:
    """Finalizer shared by :meth:`PoolBackend.shutdown` and GC."""
    for worker in workers:
        if worker.busy is not None or not worker.process.is_alive():
            worker.kill()
            continue
        try:
            worker.conn.send_bytes(_dumps(("stop",)))
        except (BrokenPipeError, OSError, ValueError):
            worker.kill()
            continue
        worker.process.join(timeout=STOP_GRACE_S)
        if worker.process.is_alive():  # pragma: no cover - slow exit
            worker.kill()
        else:
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
    workers.clear()


class PoolBackend(ExecutionBackend):
    """Warm multi-process execution (the ``"pool"`` / ``"pool:N"`` spec)."""

    name = "pool"
    supports_preemption = True
    remote_workers = True

    def __init__(self, workers: Optional[int] = None) -> None:
        super().__init__()
        from repro.engine.executor import resolve_worker_count
        self.workers = resolve_worker_count(workers)
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self._context = multiprocessing.get_context()
        self._workers: List[_PoolWorker] = []
        self._finalizer = weakref.finalize(
            self, _shutdown_workers, self._workers)

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self) -> _PoolWorker:
        worker = _PoolWorker(self._context)
        self._workers.append(worker)
        return worker

    def _respawn(self, worker: _PoolWorker) -> None:
        worker.kill()
        self._workers.remove(worker)
        self._spawn()

    def _free_worker(self) -> Optional[_PoolWorker]:
        for worker in self._workers:
            if worker.busy is None and worker.process.is_alive():
                return worker
        if len(self._workers) < self.workers:
            return self._spawn()
        # replace any dead-but-idle worker
        for worker in list(self._workers):
            if worker.busy is None and not worker.process.is_alive():
                worker.kill()
                self._workers.remove(worker)
                return self._spawn()
        return None

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def submit(self, execution: TaskExecution) -> None:
        worker = self._free_worker()
        if worker is None:
            raise ReproError(
                f"pool of {self.workers} worker(s) is at capacity; the "
                f"scheduler admits at most that many tasks")
        payload = _dumps(execution)
        try:
            worker.conn.send_bytes(payload)
        except (BrokenPipeError, OSError):
            self._respawn(worker)
            worker = self._workers[-1]
            worker.conn.send_bytes(payload)
        self.transfer_bytes += len(payload)
        worker.busy = execution.task_id

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def _reap_crash(self, worker: _PoolWorker) -> TaskResult:
        task_id = worker.busy
        pid = worker.pid
        worker.busy = None
        self._respawn(worker)
        return TaskResult(task_id=task_id, status=RESULT_CRASHED,
                          worker=str(pid))

    def poll(self, timeout: Optional[float]) -> List[TaskResult]:
        busy = {w.conn: w for w in self._workers if w.busy is not None}
        if not busy:
            return []
        ready = mp_connection.wait(list(busy), timeout=timeout)
        results: List[TaskResult] = []
        for conn in ready:
            worker = busy[conn]
            if worker.busy is None:  # pragma: no cover - stale readiness
                continue
            try:
                payload = conn.recv_bytes()
                message = pickle.loads(payload)
            except Exception:
                results.append(self._reap_crash(worker))
                continue
            self.transfer_bytes += len(payload)
            worker.busy = None
            results.append(message)
        return results

    # ------------------------------------------------------------------
    # cancellation / preemption
    # ------------------------------------------------------------------
    def abort(self) -> None:
        for worker in list(self._workers):
            if worker.busy is not None:
                worker.busy = None
                self._respawn(worker)

    def preempt(self, task_id: str) -> bool:
        for worker in list(self._workers):
            if worker.busy == task_id:
                worker.busy = None
                self._respawn(worker)
                return True
        return False

    def shutdown(self) -> None:
        _shutdown_workers(self._workers)
        self._finalizer.detach()
