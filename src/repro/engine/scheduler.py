"""The backend-agnostic task-graph scheduler.

This module owns every *semantic* concern of a run — what the engine
guaranteed before the 1.5 scheduler/backend split, extracted from the
old ``Engine._run_serial`` / ``Engine._run_parallel`` monolith:

* dependency tracking: a task becomes ready the moment its last
  dependency materialises (no barriers between stages);
* admission: at most ``backend.workers`` tasks are in flight, and only
  a task about to run claims its key, draws injected faults and starts
  its timeout clock;
* cache bookkeeping: same-key tasks inside one run dedup through the
  content-addressed cache, every outcome becomes a manifest record and
  (when the run is durable) an fsync'd journal line;
* cross-process single-flight: a task claims its fingerprint's flight
  lock when it is dispatched, so N invocations sharing a cache
  directory split the graph between them instead of computing the same
  key N times — a process whose ready task is claimed elsewhere parks
  it and runs other ready work meanwhile;
* retries with capped exponential backoff, timeout enforcement via
  backend preemption, crash budgets for backends whose workers can die
  independently, ``on_error="continue"`` failure/skip propagation;
* cancellation: stop scheduling, drain in-flight work within the grace
  window, abort the rest, raise :class:`~repro.errors.RunInterrupted`.

The :class:`~repro.engine.backends.base.ExecutionBackend` under it owns
exactly one *mechanical* concern: turn a submitted
:class:`~repro.engine.backends.base.TaskExecution` into a
:class:`~repro.engine.backends.base.TaskResult`.  Fault-injection
draws happen here, in the parent, so a run's fault schedule is
deterministic for a given seed no matter which backend executes it.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.engine.backends.base import (
    ExecutionBackend,
    RESULT_CRASHED,
    RESULT_DONE,
    TaskExecution,
    TaskResult,
    _traceback_tail,
)
from repro.engine.manifest import STATUS_INTERRUPTED, TaskFailure, TaskRecord
from repro.engine.stages import get_stage
from repro.errors import (
    ReproError,
    RunInterrupted,
    TaskTimeoutError,
    WorkerCrashError,
    error_code,
)
from repro.observe import TIME_BUCKETS, get_tracer
from repro.resilience.faults import draw_fault, kill_current_process

#: Poll cadence while parked behind another process's flight [s].
FLIGHT_BLOCK_POLL_S = 0.05


class Scheduler:
    """Drives one engine run over an execution backend."""

    def __init__(self, cache, policy, *, journal=None, cancellation=None,
                 run_start: float = 0.0):
        self.cache = cache
        self.policy = policy
        self.journal = journal
        self.cancellation = cancellation
        #: ``time.perf_counter`` at run start; worker-reported compute
        #: start timestamps are stored relative to it.
        self.run_start = run_start

    # ------------------------------------------------------------------
    # durability / cancellation hooks
    # ------------------------------------------------------------------
    def _journal_task(self, record: Dict[str, Any]) -> None:
        if self.journal is not None:
            self.journal.append(record)

    def _cancelled(self) -> bool:
        return self.cancellation is not None and self.cancellation.is_set()

    def check_cancelled(self, result) -> None:
        """Raise :class:`RunInterrupted` when the token is set."""
        if self._cancelled():
            self.interrupt(result)

    def interrupt(self, result) -> None:
        result.manifest.status = STATUS_INTERRUPTED
        reason = (self.cancellation.reason if self.cancellation
                  else "cancelled")
        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter("engine.run.interrupted").inc()
            tracer.event("engine.run.interrupted", reason=reason,
                         done=len(result.artifacts))
        raise RunInterrupted(
            f"run interrupted by {reason} after "
            f"{len(result.artifacts)} task(s); resume recomputes only "
            f"what the journal and cache did not preserve",
            manifest=result.manifest,
            run_id=result.manifest.run_id)

    # ------------------------------------------------------------------
    # bookkeeping (manifest records, journal lines, trace events)
    # ------------------------------------------------------------------
    @staticmethod
    def _observe_record(record: TaskRecord, **extra: Any) -> None:
        """Fold a manifest record into the trace's event stream."""
        tracer = get_tracer()
        if not tracer.enabled:
            return
        tracer.event("engine.task", task=record.task_id,
                     stage=record.stage, cache=record.cache,
                     wall_time=record.wall_time, worker=record.worker,
                     **extra)
        if record.cache_hit:
            tracer.counter(f"engine.cache_hits.{record.cache}").inc()

    def _started_offset(self, started_at: float) -> float:
        """A backend's compute-start timestamp, relative to run start."""
        if started_at < 0.0:
            return -1.0
        return max(started_at - self.run_start, 0.0)

    def record_computed(self, task, key: str, res: TaskResult, result,
                        attempts: int = 1, **extra: Any) -> None:
        self.cache.put(key, get_stage(task.stage), res.artifact)
        result.artifacts[task.id] = res.artifact
        record = TaskRecord(
            task_id=task.id, stage=task.stage, key=key, cache="miss",
            wall_time=res.wall_time, worker=res.worker,
            attempts=attempts, cpu_time=res.cpu_time,
            started_at=self._started_offset(res.started_at))
        result.manifest.add(record)
        self._observe_record(record, **extra)
        self._journal_task({"type": "task", "id": task.id, "key": key,
                            "stage": task.stage, "status": "done",
                            "cache": "miss"})
        # Chaos hook: die at this task boundary — the artefact is
        # published and journalled, so a resume trusts it and loses at
        # most the tasks that were in flight.
        if draw_fault("proc_kill", task.stage) is not None:
            kill_current_process()  # pragma: no cover - kills process

    def record_failure(self, task, key: str, exc: BaseException,
                       attempts: int, result,
                       traceback_text: str = "") -> TaskFailure:
        failure = TaskFailure(
            task_id=task.id, stage=task.stage, key=key, status="failed",
            error_type=type(exc).__name__, message=str(exc),
            attempts=attempts,
            traceback=traceback_text or _traceback_tail(exc),
            code=error_code(exc),
            retryable=isinstance(exc, ReproError) and exc.retryable)
        result.manifest.add_failure(failure)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter("engine.task.failed").inc()
            tracer.event("engine.task.failed", task=task.id,
                         stage=task.stage, error=type(exc).__name__,
                         message=str(exc), attempts=attempts)
        self._journal_task({"type": "task", "id": task.id, "key": key,
                            "stage": task.stage, "status": "failed",
                            "error": type(exc).__name__})
        return failure

    def record_skip(self, task, key: str, upstream: str,
                    result) -> TaskFailure:
        failure = TaskFailure(
            task_id=task.id, stage=task.stage, key=key,
            status="skipped", upstream=upstream,
            code="engine.task_skipped", retryable=True)
        result.manifest.add_failure(failure)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter("engine.task.skipped").inc()
            tracer.event("engine.task.skipped", task=task.id,
                         stage=task.stage, upstream=upstream)
        self._journal_task({"type": "task", "id": task.id, "key": key,
                            "stage": task.stage, "status": "skipped",
                            "upstream": upstream})
        return failure

    @staticmethod
    def note_retry(task, attempt: int, exc: BaseException,
                   delay: float) -> None:
        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter("engine.task.retry").inc()
            tracer.event("engine.task.retry", task=task.id,
                         stage=task.stage, attempt=attempt,
                         error=type(exc).__name__, delay_s=delay)

    def try_cache(self, task, key: str, result) -> bool:
        """Serve a task from cache if possible (same-key dedup in a run)."""
        stage = get_stage(task.stage)
        start = time.perf_counter()
        artifact, layer = self.cache.get(key, stage)
        if layer is None:
            return False
        result.artifacts[task.id] = artifact
        record = TaskRecord(
            task_id=task.id, stage=task.stage, key=key, cache=layer,
            wall_time=time.perf_counter() - start, worker="cache")
        result.manifest.add(record)
        self._observe_record(record)
        self._journal_task({"type": "task", "id": task.id, "key": key,
                            "stage": task.stage, "status": "done",
                            "cache": layer})
        return True

    # ------------------------------------------------------------------
    # the unified scheduling loop
    # ------------------------------------------------------------------
    def execute(self, pending: Sequence, keys: Dict[str, str], result,
                backend: ExecutionBackend, on_error: str) -> None:
        """Drain ``pending`` (cache-missed, topologically ordered) tasks.

        One loop serves every backend.  Ready tasks are admitted in the
        order they became ready, at most ``backend.workers`` at a time;
        a first dispatch claims the task's key (its single-flight lock
        for persistent stages) and re-checks the store right after
        winning the flight, because a peer may have published between
        our miss and our claim.  The cache is probed when a task becomes
        ready, when a same-key sibling finishes and on each poll of a
        task parked behind another process's flight.

        Capability flags gate the parts that only make sense for some
        execution models:

        * ``remote_workers`` — draw ``worker_kill`` faults at dispatch,
          budget crash recoveries, measure queue latency;
        * ``supports_preemption`` — enforce ``RetryPolicy.timeout`` by
          preempting overdue tasks.
        """
        tracer = get_tracer()
        observing = tracer.enabled
        policy = self.policy
        cache = self.cache
        draw_kills = backend.remote_workers
        enforce_timeout = (policy.timeout is not None
                           and backend.supports_preemption)

        #: Tasks with unlanded dependencies, in topological order.
        waiting = {task.id: task for task in pending}
        #: Tasks whose dependencies landed, in admission order.
        ready: List[Any] = []
        inflight: Dict[str, Any] = {}
        deadlines: Dict[str, float] = {}
        deferred: List[Tuple[float, Any]] = []          # backoff timers
        attempts: Dict[str, int] = {}
        crashes: Dict[str, int] = {}
        submit_times: Dict[str, float] = {}
        #: Keys this run is computing (running or backing off).
        inflight_keys = set()
        unresolved: Dict[str, TaskFailure] = {}
        raised: List[BaseException] = []
        #: Cross-process single-flight claims held for in-flight keys.
        flights: Dict[str, Any] = {}
        #: Ready tasks parked behind another *process's* flight, with
        #: the stampede-fallback deadline after which we compute anyway.
        parked: Dict[str, float] = {}

        def release_flight(key: str) -> None:
            flight = flights.pop(key, None)
            if flight is not None:
                cache.end_flight(flight)

        def raise_or_continue(exc: BaseException) -> None:
            if on_error == "raise":
                raised.append(exc)

        def probe(task) -> bool:
            """Serve a ready task from the cache; True when it landed."""
            if not self.try_cache(task, keys[task.id], result):
                return False
            ready.remove(task)
            parked.pop(task.id, None)
            return True

        def fail_task(task, exc: BaseException,
                      n_attempts: int, traceback_text: str = "",
                      ) -> BaseException:
            """Record a final failure; fail same-key duplicates too.

            A task held back behind an in-flight duplicate key must fail
            when that computation fails — identical content implies an
            identical outcome, and leaving it held would deadlock the
            run (the key never materialises).
            """
            key = keys[task.id]
            unresolved[task.id] = self.record_failure(
                task, key, exc, n_attempts, result, traceback_text)
            inflight_keys.discard(key)
            release_flight(key)
            for dup in [t for t in [*waiting.values(), *ready]
                        if keys[t.id] == key]:
                if waiting.pop(dup.id, None) is None:
                    ready.remove(dup)
                parked.pop(dup.id, None)
                unresolved[dup.id] = self.record_failure(
                    dup, key, exc, 0, result)
            return exc

        def dispatch(task, attempt: int) -> None:
            fault = None
            if draw_kills:
                rule = draw_fault("worker_kill", task.stage)
                if rule is not None:
                    fault = "kill"
            if fault is None:
                rule = draw_fault("stage_exc", task.stage)
                if rule is not None:
                    fault = "exc:" + (rule.message or
                                      f"injected stage_exc at "
                                      f"{task.stage}")
            if observing and draw_kills:
                submit_times[task.id] = time.perf_counter()
                tracer.event("engine.task.submit", task=task.id,
                             stage=task.stage, attempt=attempt)
            deps = {dep: result.artifacts[dep] for dep in task.deps}
            backend.submit(TaskExecution(
                task_id=task.id, stage=task.stage, payload=task.payload,
                key=keys[task.id], deps=deps, attempt=attempt,
                observe=observing, fault=fault))
            inflight[task.id] = task
            if enforce_timeout:
                deadlines[task.id] = time.monotonic() + policy.timeout

        def claim(task) -> Optional[bool]:
            """Claim a task's key for this process before its first run.

            True = run it now; False = hold it (a sibling or a peer is
            computing the key); None = it landed from the cache.
            """
            key = keys[task.id]
            if key in inflight_keys:
                # a same-key task runs here: its success serves this one
                parked.pop(task.id, None)
                return False
            stage = get_stage(task.stage)
            if stage.persistent:
                if (task.id in parked
                        and cache.has_disk_entry(stage.name, key)
                        and probe(task)):
                    return None
                flight = cache.begin_flight(key)
                if flight is None:
                    deadline = parked.setdefault(
                        task.id, time.monotonic() + cache.lock_timeout)
                    if time.monotonic() < deadline:
                        return False
                    # Stampede fallback: the holder is wedged; compute
                    # anyway (the atomic publish makes duplicates safe).
                    cache.flight_timeouts += 1
                    if observing:
                        tracer.counter("engine.cache.flight_timeout").inc()
                elif cache.has_disk_entry(stage.name, key) and probe(task):
                    cache.end_flight(flight)
                    return None
                else:
                    flights[key] = flight
                parked.pop(task.id, None)
            inflight_keys.add(key)
            return True

        def admit() -> None:
            # loop until nothing changes: a cache-served task can
            # unblock its dependents within the same scheduling round
            progress = True
            while progress:
                progress = False
                now = time.monotonic()
                for entry in list(deferred):
                    if now >= entry[0]:
                        deferred.remove(entry)
                        ready.append(entry[1])  # a retry keeps its claim
                for task_id in list(waiting):
                    task = waiting[task_id]
                    bad_dep = next((d for d in task.deps
                                    if d in unresolved), None)
                    if bad_dep is not None:
                        del waiting[task_id]
                        unresolved[task_id] = self.record_skip(
                            task, keys[task_id], bad_dep, result)
                        progress = True
                    elif all(dep in result.artifacts for dep in task.deps):
                        del waiting[task_id]
                        ready.append(task)
                        if probe(task):
                            progress = True
                for task in list(ready):
                    if len(inflight) >= backend.workers:
                        break
                    if task.id not in attempts:
                        claimed = claim(task)
                        if claimed is None:
                            progress = True
                        if not claimed:
                            continue
                    ready.remove(task)
                    attempts[task.id] = attempts.get(task.id, 0) + 1
                    dispatch(task, attempts[task.id])

        def record_success(task, res: TaskResult) -> None:
            key = keys[task.id]
            inflight_keys.discard(key)
            extra = {}
            if observing and draw_kills and task.id in submit_times:
                # Queue latency: time the finished task spent between
                # dispatch and compute start (serialisation + transfer).
                elapsed = time.perf_counter() - submit_times.pop(task.id)
                queue_s = max(elapsed - res.wall_time, 0.0)
                extra["queue_s"] = queue_s
                tracer.histogram("engine.queue_latency_s",
                                 TIME_BUCKETS).observe(queue_s)
            if observing and res.observed is not None:
                tracer.merge_records(res.observed)
            self.record_computed(task, key, res, result,
                                 attempts=attempts.get(task.id, 1),
                                 **extra)
            # The artefact is published: let waiting peers read it.
            release_flight(key)
            for sibling in [t for t in ready if keys[t.id] == key]:
                probe(sibling)

        def handle_result(res: TaskResult) -> None:
            task = inflight.pop(res.task_id, None)
            if task is None:
                return  # stale report (e.g. raced a preemption)
            deadlines.pop(res.task_id, None)
            if res.status == RESULT_DONE:
                record_success(task, res)
                return
            submit_times.pop(task.id, None)
            if res.status == RESULT_CRASHED:
                result.manifest.pool_rebuilds += 1
                if observing:
                    tracer.counter("engine.pool.rebuilt").inc()
                    tracer.event("engine.pool.rebuilt", reason="crash",
                                 lost=1)
                crashes[task.id] = crashes.get(task.id, 0) + 1
                n = attempts.get(task.id, 1)
                if crashes[task.id] > policy.retries + 1:
                    exc: BaseException = WorkerCrashError(
                        f"worker died {crashes[task.id]} times while "
                        f"computing {task.id}")
                    raise_or_continue(fail_task(task, exc, n))
                else:
                    # a crash is not the task's fault: rerun it in the
                    # freed slot without burning a retry attempt (the
                    # crash budget above still bounds a task that keeps
                    # killing workers)
                    if observing:
                        tracer.event("engine.task.resubmit",
                                     task=task.id, stage=task.stage,
                                     reason="crash")
                    dispatch(task, n)
                return
            # RESULT_ERROR: the compute raised
            exc = res.error
            n = attempts.get(task.id, 1)
            if n < policy.attempts:
                delay = policy.delay(n)
                self.note_retry(task, n, exc, delay)
                deferred.append((time.monotonic() + delay, task))
            else:
                raise_or_continue(fail_task(task, exc, n,
                                            res.error_traceback))

        def enforce_deadlines() -> None:
            now = time.monotonic()
            overdue = sorted(tid for tid, deadline in deadlines.items()
                             if deadline <= now)
            for task_id in overdue:
                task = inflight.get(task_id)
                deadlines.pop(task_id, None)
                if task is None:  # pragma: no cover - result raced us
                    continue
                if observing:
                    tracer.counter("engine.task.timeout").inc()
                    tracer.event("engine.task.timeout", task=task_id)
                if backend.preempt(task_id):
                    result.manifest.pool_rebuilds += 1
                    if observing:
                        tracer.counter("engine.pool.rebuilt").inc()
                        tracer.event("engine.pool.rebuilt",
                                     reason="timeout", lost=1)
                inflight.pop(task_id, None)
                submit_times.pop(task_id, None)
                exc = TaskTimeoutError(
                    f"task {task_id} exceeded its "
                    f"{policy.timeout:g}s budget")
                n = attempts.get(task_id, 1)
                if n < policy.attempts:
                    delay = policy.delay(n)
                    self.note_retry(task, n, exc, delay)
                    deferred.append((time.monotonic() + delay, task))
                else:
                    raise_or_continue(fail_task(task, exc, n))

        def drain_and_interrupt() -> None:
            """Graceful shutdown: drain in-flight work, then stop.

            No new dispatches happen after this point: pending backoff
            retries and ready-but-unstarted tasks are dropped; running
            tasks get the grace window to land (their results are
            recorded and journalled), then the backend aborts the rest.
            """
            deferred.clear()
            ready.clear()
            parked.clear()
            grace = (self.cancellation.grace
                     if self.cancellation is not None else 0.0)
            if (self.cancellation is not None
                    and self.cancellation.expired):
                # A deadline-expired run has no time budget left to
                # drain into: abort in-flight work immediately (its
                # journalled prefix is still resumable).
                grace = 0.0
            deadline = time.monotonic() + grace
            while inflight and time.monotonic() < deadline:
                step = max(0.0, min(0.1,
                                    deadline - time.monotonic()))
                results = backend.poll(step)
                for res in sorted(results, key=lambda r: r.task_id):
                    if res.status == RESULT_DONE:
                        handle_result(res)
                    else:
                        # failures don't matter anymore: the run is
                        # being interrupted, a resume will retry them
                        inflight.pop(res.task_id, None)
            if inflight:
                backend.abort()
                inflight.clear()
            self.interrupt(result)

        try:
            admit()
            while (inflight or deferred or parked) and not raised:
                if self._cancelled():
                    drain_and_interrupt()
                if not inflight:
                    # only backoff timers / flight parks remain: sleep
                    # until the earliest wake source
                    now = time.monotonic()
                    sleep_for = 0.0
                    if deferred:
                        earliest = min(ready_at for ready_at, _ in deferred)
                        sleep_for = max(sleep_for, earliest - now)
                    if parked:
                        sleep_for = (min(sleep_for, FLIGHT_BLOCK_POLL_S)
                                     if sleep_for
                                     else FLIGHT_BLOCK_POLL_S)
                    if self.cancellation is not None:
                        remaining = self.cancellation.remaining()
                        if remaining is not None:
                            sleep_for = min(sleep_for, remaining)
                    if sleep_for > 0:
                        time.sleep(sleep_for)
                    admit()
                    continue
                timeout = None
                now = time.monotonic()
                if enforce_timeout and deadlines:
                    timeout = max(0.0, min(deadlines.values()) - now)
                if deferred:
                    wake = max(0.0, min(r for r, _ in deferred) - now)
                    timeout = (wake if timeout is None
                               else min(timeout, wake))
                if parked:
                    timeout = (FLIGHT_BLOCK_POLL_S if timeout is None
                               else min(timeout, FLIGHT_BLOCK_POLL_S))
                if self.cancellation is not None:
                    remaining = self.cancellation.remaining()
                    if remaining is not None:
                        timeout = (remaining if timeout is None
                                   else min(timeout, remaining))
                results = backend.poll(timeout)
                for res in sorted(results, key=lambda r: r.task_id):
                    handle_result(res)
                if raised:
                    continue
                if enforce_timeout and deadlines:
                    enforce_deadlines()
                admit()
            if raised:
                raise raised[0]
            if waiting or ready:
                # Structural safety net: any task still held here is a
                # scheduler bug — fail loudly rather than deadlock.
                stalled = sorted([*waiting, *(t.id for t in ready)])
                raise ReproError(
                    f"scheduler stalled with {len(stalled)} unresolved "
                    f"task(s): {stalled}")
        finally:
            for key in list(flights):
                release_flight(key)
            if inflight:
                # a raised run leaves tasks running: stop them, or their
                # workers stay busy into the next run on this backend
                backend.abort()
            backend.reset()
