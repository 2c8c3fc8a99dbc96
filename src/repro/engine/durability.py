"""Crash-safe run durability: journals and graceful shutdown.

A *durable* run writes an append-only, fsync'd journal under the cache
directory (``<cache_dir>/runs/<run_id>/journal.jsonl``): one ``begin``
record carrying the flow parameters, one ``task`` record per task
outcome, ``resume`` markers, and an ``end`` record.  Because every
artefact is content-addressed, the journal does not need to carry data
— after a ``kill -9`` at any point, :func:`replay_journal` recovers the
longest consistent record prefix (a torn final line is discarded), and
a resumed run simply re-executes the same graph: completed entries are
*trusted only through the content-addressed disk cache* (the journal
says what finished; the cache's fingerprint and format validation
says whether the bytes are still good), everything else is recomputed.
At most the in-flight tasks of the killed process are lost.

Graceful shutdown: :class:`GracefulShutdown` converts SIGINT/SIGTERM
into a :class:`CancellationToken` the engine polls at task boundaries.
The engine stops scheduling, drains in-flight tasks for up to
``REPRO_SHUTDOWN_GRACE`` seconds, then raises
:class:`~repro.errors.RunInterrupted` with the partial manifest; the
CLI flushes journal + manifest and exits :data:`EXIT_INTERRUPTED` so a
wrapper can auto-resume.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, IO, List, Optional, Set

from repro.config import require_finite_float, resolve_float
from repro.errors import ReproError

#: Environment variable bounding the shutdown drain window [s].
SHUTDOWN_GRACE_ENV = "REPRO_SHUTDOWN_GRACE"

#: Default drain window when the env var is unset [s].
DEFAULT_SHUTDOWN_GRACE = 5.0

#: Subdirectory of the cache dir holding per-run journals.
RUNS_DIRNAME = "runs"

#: Journal schema version (bump on incompatible record changes).
JOURNAL_FORMAT = 1

#: Process exit codes of the resume-aware CLIs.
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
#: Distinct "interrupted but resumable" code (EX_TEMPFAIL) — a wrapper
#: seeing it can re-invoke with ``resume <run_id>``.
EXIT_INTERRUPTED = 75


def new_run_id() -> str:
    """A unique, sortable run identifier (utc time + pid + entropy)."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"{stamp}-{os.getpid()}-{os.urandom(3).hex()}"


def runs_root(cache_dir: os.PathLike) -> Path:
    """The per-run journal root under a cache directory."""
    return Path(cache_dir) / RUNS_DIRNAME


def run_dir(cache_dir: os.PathLike, run_id: str) -> Path:
    """One run's journal directory."""
    if not run_id or "/" in run_id or run_id.startswith("."):
        raise ReproError(f"invalid run id {run_id!r}")
    return runs_root(cache_dir) / run_id


# ----------------------------------------------------------------------
# the append-only journal
# ----------------------------------------------------------------------
class RunJournal:
    """Append-only fsync'd JSONL journal of one run.

    Every :meth:`append` writes one canonical JSON line, flushes and
    fsyncs — after a crash the file holds a consistent prefix plus at
    most one torn final line, which :func:`replay_journal` discards.
    """

    FILENAME = "journal.jsonl"

    def __init__(self, path: os.PathLike):
        self.path = Path(path)
        self._handle: Optional[IO[str]] = None

    @classmethod
    def for_run(cls, cache_dir: os.PathLike, run_id: str) -> "RunJournal":
        """The journal of one run under one cache directory."""
        return cls(run_dir(cache_dir, run_id) / cls.FILENAME)

    @property
    def exists(self) -> bool:
        return self.path.is_file()

    def append(self, record: Dict[str, Any]) -> None:
        """Durably append one record (one JSON line)."""
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        self._handle.write(line + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def replay_journal(path: os.PathLike) -> List[Dict[str, Any]]:
    """Records of a journal file: the longest consistent prefix.

    Reading stops at the first line that is not complete valid JSON —
    a crash (or ``kill -9``) can tear at most the final append, so
    everything before the tear is trusted and everything after it is
    not.  Replaying is a pure read: calling it twice (or on a journal
    that is being appended to) yields a stable, order-preserving
    prefix.
    """
    records: List[Dict[str, Any]] = []
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        return records
    for raw in data.split(b"\n"):
        if not raw:
            continue
        try:
            record = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            break
        if not isinstance(record, dict):
            break
        records.append(record)
    return records


@dataclass
class JournalState:
    """What a replayed journal says about a run.

    ``tasks`` maps task id to its *latest* journalled status record
    (idempotent under replay: later records for the same task win, so
    resumed runs that re-record a task converge to one entry).
    """

    run_id: str = ""
    flow: Optional[Dict[str, Any]] = None
    tasks: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    status: str = "unknown"
    resumes: int = 0
    records: int = 0

    @classmethod
    def from_records(cls, records: List[Dict[str, Any]]) -> "JournalState":
        state = cls(records=len(records))
        for record in records:
            kind = record.get("type")
            if kind == "begin":
                state.run_id = record.get("run_id", "")
                state.flow = record.get("flow")
                state.status = "running"
            elif kind == "resume":
                state.resumes += 1
                state.status = "running"
            elif kind == "task":
                task_id = record.get("id")
                if task_id:
                    state.tasks[str(task_id)] = record
            elif kind == "end":
                state.status = record.get("status", "unknown")
        return state

    @property
    def begun(self) -> bool:
        """True when the journal has a readable ``begin`` record."""
        return self.flow is not None or bool(self.run_id)

    def done(self) -> Dict[str, Dict[str, Any]]:
        """Tasks whose latest record is a completed artefact."""
        return {tid: rec for tid, rec in self.tasks.items()
                if rec.get("status") == "done"}

    def keys(self, status: Optional[str] = None) -> Set[str]:
        """Artefact keys journalled for tasks (optionally by status)."""
        return {rec["key"] for rec in self.tasks.values()
                if "key" in rec
                and (status is None or rec.get("status") == status)}


def load_run(cache_dir: os.PathLike, run_id: str) -> JournalState:
    """Replay one run's journal into a :class:`JournalState`."""
    path = run_dir(cache_dir, run_id) / RunJournal.FILENAME
    if not path.is_file():
        raise ReproError(f"no journal for run {run_id!r} under "
                         f"{runs_root(cache_dir)}")
    state = JournalState.from_records(replay_journal(path))
    if not state.begun:
        raise ReproError(f"journal of run {run_id!r} has no readable "
                         f"begin record (torn before first fsync?)")
    if not state.run_id:
        state.run_id = run_id
    return state


def list_runs(cache_dir: os.PathLike) -> List[Dict[str, Any]]:
    """Summaries of every journalled run (newest first)."""
    root = runs_root(cache_dir)
    out: List[Dict[str, Any]] = []
    if not root.is_dir():
        return out
    for entry in sorted(root.iterdir(), reverse=True):
        journal = entry / RunJournal.FILENAME
        if not journal.is_file():
            continue
        state = JournalState.from_records(replay_journal(journal))
        done = len(state.done())
        out.append({
            "run_id": state.run_id or entry.name,
            "status": state.status,
            "tasks_done": done,
            "tasks_failed": len(state.tasks) - done,
            "resumes": state.resumes,
            # Not completed = interrupted, failed or still running:
            # resumable either way.
            "active": state.status != "completed",
        })
    return out


# ----------------------------------------------------------------------
# graceful shutdown
# ----------------------------------------------------------------------
def resolve_shutdown_grace(grace: Optional[float] = None) -> float:
    """Drain window: explicit > ``REPRO_SHUTDOWN_GRACE`` > default.

    Zero is allowed (drain nothing, stop immediately); negative, NaN,
    infinite and non-numeric values are rejected up front.
    """
    return resolve_float(SHUTDOWN_GRACE_ENV, DEFAULT_SHUTDOWN_GRACE,
                         grace, minimum=0.0)


class CancellationToken:
    """A cooperative stop request the engine polls at task boundaries.

    ``grace`` is how long the engine may keep draining in-flight tasks
    after the token is set before it kills the pool.

    A token can also carry a *deadline*: an absolute ``time.monotonic``
    instant after which the token counts as set without anyone calling
    :meth:`request`.  This is how an external caller (the
    characterisation service, a batch wrapper) bounds a run's wall
    time — the engine observes expiry at the next task boundary and
    winds the run down exactly like a signal would, except the drain
    grace collapses to zero (the budget is already spent).
    """

    def __init__(self, grace: Optional[float] = None,
                 deadline: Optional[float] = None):
        self.grace = resolve_shutdown_grace(grace)
        self._event = threading.Event()
        self.signum: Optional[int] = None
        #: Absolute ``time.monotonic`` expiry, or ``None`` for no bound.
        self.deadline = deadline
        self._reason: Optional[str] = None

    def request(self, signum: Optional[int] = None,
                reason: Optional[str] = None) -> None:
        """Set the token (idempotent)."""
        if self.signum is None:
            self.signum = signum
        if self._reason is None:
            self._reason = reason
        self._event.set()

    def set_deadline(self, seconds_from_now: float) -> None:
        """Arm (or tighten) the expiry ``seconds_from_now`` ahead."""
        require_finite_float("deadline", seconds_from_now, minimum=0.0)
        expiry = time.monotonic() + seconds_from_now
        if self.deadline is None or expiry < self.deadline:
            self.deadline = expiry

    @property
    def expired(self) -> bool:
        """True once the deadline (if any) has passed."""
        return (self.deadline is not None
                and time.monotonic() >= self.deadline)

    def remaining(self) -> Optional[float]:
        """Seconds until expiry (>= 0), or ``None`` for no deadline."""
        if self.deadline is None:
            return None
        return max(self.deadline - time.monotonic(), 0.0)

    def is_set(self) -> bool:
        return self._event.is_set() or self.expired

    @property
    def reason(self) -> str:
        if self._reason is not None:
            return self._reason
        if self.signum is not None:
            try:
                return signal.Signals(self.signum).name
            except ValueError:  # pragma: no cover - unnamed signal
                return f"signal {self.signum}"
        if self.expired and not self._event.is_set():
            return "deadline"
        return "cancelled"


class GracefulShutdown:
    """Scope that turns SIGINT/SIGTERM into a cancellation token.

    Inside the scope the first signal sets :attr:`token` (the run winds
    down within the grace window); a second signal restores default
    handling semantics by raising :class:`KeyboardInterrupt` — an
    impatient operator can always bail immediately.  Handler
    installation silently degrades to signal-less operation off the
    main thread (the token still works programmatically).
    """

    SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self, grace: Optional[float] = None):
        self.token = CancellationToken(grace)
        self._previous: Dict[int, Any] = {}
        self.installed = False

    def _handle(self, signum, frame) -> None:
        if self.token.is_set():
            raise KeyboardInterrupt
        self.token.request(signum)

    def __enter__(self) -> "GracefulShutdown":
        try:
            for signum in self.SIGNALS:
                self._previous[signum] = signal.signal(signum,
                                                       self._handle)
            self.installed = True
        except ValueError:  # pragma: no cover - non-main thread
            self._restore()
        return self

    def _restore(self) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except ValueError:  # pragma: no cover - non-main thread
                pass
        self._previous.clear()
        self.installed = False

    def __exit__(self, *exc_info) -> None:
        self._restore()
