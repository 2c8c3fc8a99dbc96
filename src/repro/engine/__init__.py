"""Content-addressed, parallel execution engine.

Every expensive pipeline artefact (TCAD characterisation, staged
extraction, cell transient simulation) is produced by a *task*: a pure
function identified by a stage name, a JSON-canonical payload and the
tasks it depends on.  The engine

* fingerprints each task from its stage version, payload and dependency
  fingerprints (content addressing — two tasks with identical inputs
  share one artefact, two tasks differing anywhere get distinct ones);
* caches artefacts in memory and, via each stage's codec, in an on-disk
  JSON store (default ``~/.cache/repro``, overridable with the
  ``REPRO_CACHE_DIR`` environment variable), optionally backed by a
  shared remote tier (``REPRO_REMOTE_CACHE=http://host:port`` pointing
  at a ``python -m repro.cachesrv`` endpoint — see
  :mod:`repro.engine.remote` for its retry/breaker/integrity fault
  model);
* fans independent tasks out over a pluggable execution backend with
  dependency-aware scheduling — deterministic in-process ``serial``
  order or a persistent warm-worker ``pool`` (selected via
  ``Engine(backend=...)`` or ``REPRO_BACKEND``);
* records a :class:`RunManifest` of per-task wall time, cache hit/miss
  and worker id for every run;
* survives crashes and coexists across processes (see
  :mod:`repro.engine.durability`): runs can journal every task outcome
  to an append-only fsync'd :class:`RunJournal` and be resumed after a
  ``kill -9``, disk-cache access is serialised with advisory file
  locks, concurrent invocations sharing one cache directory
  single-flight their misses, and SIGINT/SIGTERM drain gracefully
  within ``REPRO_SHUTDOWN_GRACE`` seconds.  The disk store is
  unbounded: published entries are never deleted.

See ``repro.engine.pipeline`` for the paper pipeline's stage
definitions and task builders, and ``repro.flows.durable`` for the
journalled flow runner and its ``python -m repro.flows`` CLI.
"""

from repro.engine.backends import (
    BACKEND_ENV,
    ExecutionBackend,
    PoolBackend,
    SerialBackend,
    backend_for_workers,
    parse_backend_spec,
    resolve_backend,
)
from repro.engine.cache import ArtifactCache, resolve_cache_dir
from repro.engine.remote import (
    REMOTE_CACHE_ENV,
    REMOTE_TIMEOUT_ENV,
    RemoteCache,
    resolve_remote_cache,
)
from repro.engine.durability import (
    EXIT_FAILURE,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_USAGE,
    CancellationToken,
    GracefulShutdown,
    JournalState,
    RunJournal,
    list_runs,
    load_run,
    new_run_id,
    replay_journal,
    resolve_shutdown_grace,
    run_dir,
)
from repro.engine.executor import (
    Engine,
    EngineRun,
    Task,
    default_engine,
    reset_default_engine,
    resolve_worker_count,
    set_default_engine,
)
from repro.engine.fingerprint import canonicalize, fingerprint
from repro.engine.locks import FileLock, resolve_lock_timeout
from repro.engine.scheduler import Scheduler
from repro.engine.manifest import (
    RunManifest,
    STATUS_COMPLETED,
    STATUS_INTERRUPTED,
    TaskFailure,
    TaskRecord,
)
from repro.engine.stages import (
    StageDef,
    get_stage,
    register_stage,
    registered_stages,
    unregister_stage,
)

__all__ = [
    "ArtifactCache",
    "BACKEND_ENV",
    "CancellationToken",
    "EXIT_FAILURE",
    "EXIT_INTERRUPTED",
    "EXIT_OK",
    "EXIT_USAGE",
    "Engine",
    "EngineRun",
    "ExecutionBackend",
    "FileLock",
    "GracefulShutdown",
    "JournalState",
    "PoolBackend",
    "REMOTE_CACHE_ENV",
    "REMOTE_TIMEOUT_ENV",
    "RemoteCache",
    "RunJournal",
    "RunManifest",
    "STATUS_COMPLETED",
    "STATUS_INTERRUPTED",
    "Scheduler",
    "SerialBackend",
    "StageDef",
    "Task",
    "TaskFailure",
    "TaskRecord",
    "backend_for_workers",
    "canonicalize",
    "default_engine",
    "fingerprint",
    "get_stage",
    "list_runs",
    "load_run",
    "new_run_id",
    "parse_backend_spec",
    "register_stage",
    "registered_stages",
    "replay_journal",
    "reset_default_engine",
    "resolve_backend",
    "resolve_cache_dir",
    "resolve_lock_timeout",
    "resolve_remote_cache",
    "resolve_shutdown_grace",
    "resolve_worker_count",
    "run_dir",
    "set_default_engine",
    "unregister_stage",
]
