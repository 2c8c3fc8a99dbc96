"""The engine facade: task graphs in, artefacts out.

``Engine.run`` takes a list of :class:`Task` descriptions, fingerprints
them (stage version + payload + dependency fingerprints, so content
addressing composes through the graph), serves whatever it can from the
:class:`~repro.engine.cache.ArtifactCache`, and hands the rest to the
:class:`~repro.engine.scheduler.Scheduler`, which drives a pluggable
:class:`~repro.engine.backends.ExecutionBackend`:

``serial``
    deterministic in-process execution in topological order;
``pool`` / ``pool:N``
    persistent warm worker processes — modules imported once, pickled
    payloads over one pipe per worker.

Backends execute the same pure stage functions on the same inputs, so
their artefacts are bit-identical; the only difference a manifest can
show is wall time and worker ids.  Selection: ``Engine(backend=...)``
(spec string or instance) > the ``REPRO_BACKEND`` environment variable
> a pool as wide as the CPUs the process may run on.

Failure domain (see :mod:`repro.resilience`): every task gets the
engine's :class:`~repro.resilience.retry.RetryPolicy` — capped
exponential backoff between attempts (``REPRO_TASK_RETRIES``) and an
optional wall-time budget per task (``REPRO_TASK_TIMEOUT``, enforced on
backends that can preempt a running task).  A dead worker surfaces as a
``crashed`` result: the task is resubmitted without burning a retry
attempt, bounded by a crash budget.  With ``on_error="continue"`` a
task that exhausts its attempts is recorded as a
:class:`~repro.engine.manifest.TaskFailure`, its dependents are marked
``skipped``, and every independent subgraph still runs to completion.

Durability (see :mod:`repro.engine.durability`): ``run`` optionally
journals every task outcome to an append-only fsync'd
:class:`~repro.engine.durability.RunJournal` (crash-safe resume),
honours a :class:`~repro.engine.durability.CancellationToken` at task
boundaries (graceful shutdown: stop scheduling, drain in-flight work
within the grace window, raise :class:`~repro.errors.RunInterrupted`
with the partial manifest), and — when several invocations share one
cache directory — claims each cache miss's cross-process single-flight
lock as it dispatches the task, so N invocations split the graph
between them instead of computing the same fingerprint N times.
"""

from __future__ import annotations

import os
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.config import require_int
from repro.engine.backends import (
    ExecutionBackend,
    SerialBackend,
    backend_for_workers,
    resolve_backend,
)
from repro.engine.cache import ArtifactCache
from repro.engine.durability import CancellationToken, RunJournal
from repro.engine.fingerprint import combine_fingerprints, fingerprint
from repro.engine.manifest import RunManifest, TaskFailure
from repro.engine.scheduler import Scheduler
from repro.engine.stages import get_stage
from repro.errors import EngineRunError, ReproError
from repro.observe import activate, resolve_tracer
from repro.resilience.retry import RetryPolicy, resolve_retry_policy

#: Characters of formatted traceback kept in a TaskFailure record.
TRACEBACK_TAIL = 1500

#: Valid ``on_error`` modes.
ON_ERROR_MODES = ("raise", "continue")


@dataclass(frozen=True)
class Task:
    """One node of a task graph.

    ``payload`` must be JSON-canonical data (see
    :func:`repro.engine.fingerprint.canonicalize`) carrying everything
    the stage's compute function needs besides dependency artefacts;
    ``deps`` names the tasks whose artefacts it consumes.
    """

    id: str
    stage: str
    payload: Any = None
    deps: Tuple[str, ...] = ()


@dataclass
class EngineRun:
    """Artefacts and manifest of one completed run.

    After an ``on_error="continue"`` run, :attr:`failed` and
    :attr:`skipped` map task ids to their
    :class:`~repro.engine.manifest.TaskFailure` records and
    :attr:`error` aggregates them into an
    :class:`~repro.errors.EngineRunError` (``None`` when all succeeded).
    """

    artifacts: Dict[str, Any] = field(default_factory=dict)
    manifest: RunManifest = field(default_factory=lambda: RunManifest(1))

    def __getitem__(self, task_id: str) -> Any:
        return self.artifacts[task_id]

    @property
    def failed(self) -> Dict[str, TaskFailure]:
        """Tasks whose compute failed after every attempt."""
        return {f.task_id: f for f in self.manifest.failed()}

    @property
    def skipped(self) -> Dict[str, TaskFailure]:
        """Tasks skipped because a dependency failed."""
        return {f.task_id: f for f in self.manifest.skipped()}

    @property
    def ok(self) -> bool:
        """True when every task produced an artefact."""
        return not self.manifest.failures

    @property
    def error(self) -> Optional[EngineRunError]:
        """Aggregated failure report, or ``None`` for a clean run."""
        if self.ok:
            return None
        return EngineRunError(
            f"{len(self.manifest.failed())} task(s) failed, "
            f"{len(self.manifest.skipped())} skipped",
            failures=self.manifest.failures)

    def raise_for_failures(self) -> None:
        """Raise :attr:`error` when the run had failures."""
        error = self.error
        if error is not None:
            raise error


def resolve_worker_count(max_workers: Optional[int] = None) -> int:
    """Worker count: explicit > CPUs this process may run on.

    The default honours CPU affinity (``taskset``, cgroup cpusets) where
    the platform reports it, else ``os.cpu_count()``.  Malformed values
    fail at startup with a :class:`ConfigError`.
    """
    if max_workers is None:
        if hasattr(os, "sched_getaffinity"):
            max_workers = len(os.sched_getaffinity(0))
        else:
            max_workers = os.cpu_count() or 1
    return require_int("max_workers", max_workers, minimum=1)


def _traceback_tail(exc: BaseException) -> str:
    """Last ``TRACEBACK_TAIL`` characters of the formatted traceback."""
    try:
        text = "".join(traceback_module.format_exception(
            type(exc), exc, exc.__traceback__))
    except Exception:  # pragma: no cover - formatting never critical
        text = repr(exc)
    return text[-TRACEBACK_TAIL:]


class Engine:
    """Content-addressed task-graph runner.

    Parameters
    ----------
    backend:
        Execution backend: a spec string (``"serial"``, ``"pool"``,
        ``"pool:N"``) or an
        :class:`~repro.engine.backends.ExecutionBackend` instance to
        share between engines.  ``None`` resolves ``REPRO_BACKEND``,
        then defaults to a pool as wide as the CPUs this process may
        run on (serial when that is one core).
    cache:
        Share an existing :class:`ArtifactCache`; by default each engine
        owns one resolved from ``cache_dir`` / ``REPRO_CACHE_DIR``.
    remote:
        Remote cache tier for the engine-owned cache: a
        :class:`~repro.engine.remote.RemoteCache`, a base URL string,
        or ``None`` (resolve ``REPRO_REMOTE_CACHE``; unset = tier
        off).  Ignored when ``cache`` is shared in.
    observe:
        Observability control: ``None`` inherits the active tracer
        (``REPRO_TRACE`` env var by default), ``True``/``False`` force
        tracing on/off, a path enables tracing and exports trace files
        there after every run, a :class:`repro.observe.Tracer` records
        into that instance.  Tracing never changes artefacts — only
        what is recorded about producing them.
    retry_policy:
        Per-task :class:`~repro.resilience.retry.RetryPolicy`; ``None``
        resolves from ``REPRO_TASK_RETRIES`` / ``REPRO_TASK_TIMEOUT``.
    on_error:
        Default failure mode of :meth:`run`: ``"raise"`` re-raises the
        first task error after its retries are exhausted (pre-1.3
        behaviour), ``"continue"`` records failures in the manifest,
        skips dependents and completes every independent subgraph.
    """

    def __init__(self, *, cache: Optional[ArtifactCache] = None,
                 cache_dir: Optional[os.PathLike] = None,
                 use_disk: bool = True,
                 observe: Any = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 on_error: str = "raise",
                 backend: Optional[Union[str, ExecutionBackend]] = None,
                 remote=None):
        if on_error not in ON_ERROR_MODES:
            raise ReproError(f"on_error must be one of {ON_ERROR_MODES}, "
                             f"got {on_error!r}")
        #: True when this engine constructed the backend itself (and
        #: therefore owns its lifetime); False for shared instances.
        self.owns_backend = not isinstance(backend, ExecutionBackend)
        self.backend = resolve_backend(backend) or backend_for_workers()
        self.cache = cache or ArtifactCache(cache_dir=cache_dir,
                                            use_disk=use_disk,
                                            remote=remote)
        self.observe = observe
        self.retry_policy = resolve_retry_policy(retry_policy)
        self.on_error = on_error
        self.last_manifest: Optional[RunManifest] = None

    @property
    def max_workers(self) -> int:
        """Concurrent task capacity of the engine's backend."""
        return self.backend.workers

    def shutdown(self) -> None:
        """Release backend resources (only backends this engine owns)."""
        if self.owns_backend:
            self.backend.shutdown()

    def _tracer(self):
        """The tracer this engine's runs record into."""
        return resolve_tracer(self.observe)

    # ------------------------------------------------------------------
    # graph preparation
    # ------------------------------------------------------------------
    @staticmethod
    def _topological_order(tasks: Sequence[Task]) -> List[Task]:
        by_id = {}
        for task in tasks:
            if task.id in by_id:
                raise ReproError(f"duplicate task id {task.id!r}")
            by_id[task.id] = task
        order: List[Task] = []
        state: Dict[str, int] = {}  # 1 = visiting, 2 = done

        def visit(task_id: str, chain: Tuple[str, ...]) -> None:
            if state.get(task_id) == 2:
                return
            if state.get(task_id) == 1:
                raise ReproError(
                    f"task graph cycle: {' -> '.join(chain + (task_id,))}")
            if task_id not in by_id:
                raise ReproError(f"unknown dependency {task_id!r}")
            state[task_id] = 1
            for dep in by_id[task_id].deps:
                visit(dep, chain + (task_id,))
            state[task_id] = 2
            order.append(by_id[task_id])

        for task in tasks:
            visit(task.id, ())
        return order

    def task_keys(self, tasks: Sequence[Task]) -> Dict[str, str]:
        """Content-addressed fingerprint of every task in the graph."""
        keys: Dict[str, str] = {}
        for task in self._topological_order(tasks):
            stage = get_stage(task.stage)
            keys[task.id] = combine_fingerprints(
                task.stage, str(stage.version), fingerprint(task.payload),
                *[keys[dep] for dep in task.deps])
        return keys

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[Task],
            on_error: Optional[str] = None, *,
            journal: Optional[RunJournal] = None,
            cancellation: Optional[CancellationToken] = None,
            deadline: Optional[float] = None) -> EngineRun:
        """Materialise every task's artefact, cheapest way available.

        ``on_error`` overrides the engine default for this run (see the
        constructor).  With ``"continue"``, inspect the returned run's
        :attr:`EngineRun.failed` / :attr:`EngineRun.skipped` /
        :attr:`EngineRun.error` for what (if anything) degraded.

        ``journal`` makes the run durable: every task outcome is
        appended (fsync'd) as it happens, so a killed process can be
        resumed from the journal plus the content-addressed cache.
        ``cancellation`` is polled at task boundaries; once set the
        engine stops scheduling, drains in-flight tasks within the
        token's grace window and raises
        :class:`~repro.errors.RunInterrupted` carrying the partial
        manifest (``status == "interrupted"``).

        ``deadline`` bounds the run's wall time in seconds: it arms
        (or tightens) the cancellation token's deadline, so an
        overrunning run stops at the next task boundary instead of
        holding a worker forever.  Artefacts finished before expiry
        stay journalled and cached — a retry resumes, not restarts.
        """
        if deadline is not None:
            if cancellation is None:
                cancellation = CancellationToken()
            cancellation.set_deadline(deadline)
        if on_error is None:
            on_error = self.on_error
        if on_error not in ON_ERROR_MODES:
            raise ReproError(f"on_error must be one of {ON_ERROR_MODES}, "
                             f"got {on_error!r}")
        tracer = self._tracer()
        with activate(tracer):
            with tracer.span("engine.run", tasks=len(tasks),
                             max_workers=self.max_workers,
                             backend=self.backend.name) as span:
                result = self._run_traced(tasks, on_error,
                                          journal=journal,
                                          cancellation=cancellation)
                if tracer.enabled:
                    summary = result.manifest.summary()
                    span.set(cache_hits=summary["cache_hits"],
                             computed=summary["computed"],
                             failed=summary["failed"],
                             skipped=summary["skipped"])
                    tracer.counter("engine.tasks").inc(summary["tasks"])
                    tracer.counter("engine.cache_hits").inc(
                        summary["cache_hits"])
                    tracer.counter("engine.computed").inc(
                        summary["computed"])
                    tracer.gauge("engine.cache.hit_rate").set(
                        result.manifest.hit_rate())
        if tracer.enabled and tracer.out_dir is not None:
            tracer.export_all()
        return result

    def _run_traced(self, tasks: Sequence[Task], on_error: str,
                    journal: Optional[RunJournal] = None,
                    cancellation: Optional[CancellationToken] = None,
                    ) -> EngineRun:
        run_start = time.perf_counter()
        order = self._topological_order(tasks)
        keys = self.task_keys(order)
        result = EngineRun(manifest=RunManifest(
            max_workers=self.max_workers, backend=self.backend.name))
        self.last_manifest = result.manifest
        scheduler = Scheduler(self.cache, self.retry_policy,
                              journal=journal, cancellation=cancellation,
                              run_start=run_start)
        try:
            pending = [task for task in order
                       if not scheduler.try_cache(task, keys[task.id],
                                                  result)]
            scheduler.check_cancelled(result)
            if pending:
                backend = self.backend
                if (len(pending) == 1
                        and not isinstance(backend, SerialBackend)):
                    # Degenerate graph: one task gains nothing from
                    # worker transport — run it in-process (matches the
                    # pre-1.5 single-task serial inlining).
                    backend = SerialBackend()
                backend.start(self.cache)
                transfer_before = backend.transfer_bytes
                try:
                    scheduler.execute(pending, keys, result, backend,
                                      on_error)
                finally:
                    result.manifest.transfer_bytes = (
                        backend.transfer_bytes - transfer_before)
        finally:
            result.manifest.total_wall_time = (time.perf_counter()
                                               - run_start)
        return result


# ----------------------------------------------------------------------
# the process-wide default engine (what the thin shims route through)
# ----------------------------------------------------------------------
_DEFAULT_ENGINE: Optional[Engine] = None


def default_engine() -> Engine:
    """The lazily created process-wide engine the API shims share."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = Engine()
    return _DEFAULT_ENGINE


def set_default_engine(engine: Optional[Engine]) -> Optional[Engine]:
    """Swap the default engine (returns the previous one)."""
    global _DEFAULT_ENGINE
    previous = _DEFAULT_ENGINE
    _DEFAULT_ENGINE = engine
    return previous


def reset_default_engine() -> None:
    """Drop the default engine (a fresh one resolves env vars anew)."""
    set_default_engine(None)
