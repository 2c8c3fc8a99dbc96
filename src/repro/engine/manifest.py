"""Run manifests: what the engine did, task by task.

Every :meth:`repro.engine.Engine.run` produces a :class:`RunManifest`
with one :class:`TaskRecord` per task — stage, fingerprint, whether it
hit the memory or disk cache or was computed, how long it took, and
which worker produced it.  The manifest answers the operational
questions a cached parallel pipeline raises: "did the warm run actually
skip the TCAD sweeps?", "what fraction of the wall time went to
extraction?", "did the pool spread work across workers?".
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

#: Run statuses a manifest can carry.
STATUS_COMPLETED = "completed"
STATUS_INTERRUPTED = "interrupted"


@dataclass(frozen=True)
class TaskRecord:
    """Outcome of one task in one run.

    ``cache`` is ``"memory"``, ``"disk"``, ``"remote"`` or ``"miss"``
    (computed); ``worker`` is ``"cache"`` for hits, ``"main"`` for
    in-process serial execution, or the pool worker's pid rendered as
    a string.
    ``attempts`` counts compute attempts (> 1 after retries).

    Time semantics: ``wall_time`` is the task's own elapsed compute
    time (on whatever worker ran it), ``cpu_time`` its process CPU
    time, and ``started_at`` the compute start as an offset from the
    run start (-1.0 when unknown, e.g. cache hits).  Per-task wall
    times of a parallel run overlap — summing them gives busy
    worker-seconds, *not* elapsed time (the pre-1.5 manifests summed
    them into a per-stage "wall_time" that could exceed the run's
    ``total_wall_time``; see :meth:`RunManifest.summary`).
    """

    task_id: str
    stage: str
    key: str
    cache: str
    wall_time: float
    worker: str
    attempts: int = 1
    cpu_time: float = 0.0
    started_at: float = -1.0

    @property
    def cache_hit(self) -> bool:
        return self.cache != "miss"


@dataclass(frozen=True)
class TaskFailure:
    """A task that produced no artefact in one run.

    ``status`` is ``"failed"`` (its compute raised after all retry
    attempts, or it timed out / lost its worker too often) or
    ``"skipped"`` (a dependency failed; ``upstream`` names it).
    ``traceback`` holds the tail of the formatted traceback — enough
    to triage without keeping whole stack dumps in every manifest.
    ``code`` is the stable machine-readable error code (see
    :func:`repro.errors.error_code`); clients use it to distinguish
    retryable failures (timeouts, crashes) from permanent ones.
    """

    task_id: str
    stage: str
    key: str
    status: str
    error_type: str = ""
    message: str = ""
    attempts: int = 0
    traceback: str = ""
    upstream: str = ""
    code: str = ""
    retryable: bool = False


@dataclass
class RunManifest:
    """All task records of one engine run plus run-level settings."""

    max_workers: int
    records: List[TaskRecord] = field(default_factory=list)
    failures: List[TaskFailure] = field(default_factory=list)
    total_wall_time: float = 0.0
    pool_rebuilds: int = 0
    #: Execution backend name ("" for pre-1.5 manifests).
    backend: str = ""
    #: Serialized payload bytes that crossed process boundaries.
    transfer_bytes: int = 0
    #: ``completed`` normally; ``interrupted`` when a SIGINT/SIGTERM
    #: stopped the run early (the journal + cache make it resumable).
    status: str = STATUS_COMPLETED
    #: Durable-run identifier ("" for non-journalled runs).
    run_id: str = ""

    @property
    def interrupted(self) -> bool:
        """True when the run was stopped before completing."""
        return self.status == STATUS_INTERRUPTED

    def add(self, record: TaskRecord) -> None:
        self.records.append(record)

    def add_failure(self, failure: TaskFailure) -> None:
        self.failures.append(failure)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def stages(self) -> List[str]:
        """Stage names present, in first-appearance order."""
        seen: List[str] = []
        for record in self.records:
            if record.stage not in seen:
                seen.append(record.stage)
        return seen

    def for_stage(self, stage: str) -> List[TaskRecord]:
        """Records of one stage."""
        return [r for r in self.records if r.stage == stage]

    def hit_rate(self, stage: Optional[str] = None) -> float:
        """Fraction of tasks served from cache (1.0 = all hits)."""
        records = self.for_stage(stage) if stage else self.records
        if not records:
            return 0.0
        return sum(1 for r in records if r.cache_hit) / len(records)

    def workers_used(self) -> List[str]:
        """Distinct workers that computed at least one task."""
        return sorted({r.worker for r in self.records if r.cache == "miss"})

    def failed(self) -> List[TaskFailure]:
        """Tasks whose compute failed after all attempts."""
        return [f for f in self.failures if f.status == "failed"]

    def skipped(self) -> List[TaskFailure]:
        """Tasks skipped because a dependency failed."""
        return [f for f in self.failures if f.status == "skipped"]

    def retries(self) -> int:
        """Extra compute attempts spent across the whole run."""
        return (sum(r.attempts - 1 for r in self.records)
                + sum(max(f.attempts - 1, 0) for f in self.failures))

    def stage_wall_span(self, stage: str) -> float:
        """Elapsed wall-clock span of a stage's computed tasks.

        ``max(start + wall) - min(start)`` over records with a known
        ``started_at`` — overlapping parallel tasks are counted once,
        so the span can never exceed ``total_wall_time``.  Falls back
        to summed task time when no record carries a timestamp (old
        manifests, cache-only stages).
        """
        timed = [r for r in self.for_stage(stage) if r.started_at >= 0.0]
        if not timed:
            return sum(r.wall_time for r in self.for_stage(stage))
        return (max(r.started_at + r.wall_time for r in timed)
                - min(r.started_at for r in timed))

    #: What each summary time field means (the pre-1.5 per-stage
    #: "wall_time" summed overlapping worker time and could exceed
    #: ``total_wall_time`` — 21.6 s vs 20.5 s in BENCH_engine.json).
    TIME_SEMANTICS = {
        "wall_span": "elapsed wall-clock span of the stage "
                     "(overlapping tasks counted once)",
        "task_seconds": "summed per-task wall time "
                        "(busy worker-seconds, not elapsed time)",
        "cpu_seconds": "summed per-task process CPU time",
    }

    def summary(self) -> Dict:
        """Aggregate view: totals plus per-stage hit/compute breakdown."""
        per_stage = {}
        for stage in self.stages():
            records = self.for_stage(stage)
            per_stage[stage] = {
                "tasks": len(records),
                "hits": sum(1 for r in records if r.cache_hit),
                "computed": sum(1 for r in records if not r.cache_hit),
                "wall_span": self.stage_wall_span(stage),
                "task_seconds": sum(r.wall_time for r in records),
                "cpu_seconds": sum(r.cpu_time for r in records),
            }
        return {
            "tasks": len(self.records) + len(self.failures),
            "cache_hits": sum(1 for r in self.records if r.cache_hit),
            "computed": sum(1 for r in self.records if not r.cache_hit),
            "failed": len(self.failed()),
            "skipped": len(self.skipped()),
            "retries": self.retries(),
            "pool_rebuilds": self.pool_rebuilds,
            "max_workers": self.max_workers,
            "backend": self.backend,
            "transfer_bytes": self.transfer_bytes,
            "workers_used": self.workers_used(),
            "total_wall_time": self.total_wall_time,
            "status": self.status,
            "run_id": self.run_id,
            "stages": per_stage,
            "time_semantics": dict(self.TIME_SEMANTICS),
        }

    # ------------------------------------------------------------------
    # serialisation / rendering
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-compatible representation."""
        return {
            "max_workers": self.max_workers,
            "total_wall_time": self.total_wall_time,
            "pool_rebuilds": self.pool_rebuilds,
            "backend": self.backend,
            "transfer_bytes": self.transfer_bytes,
            "status": self.status,
            "run_id": self.run_id,
            "records": [asdict(r) for r in self.records],
            "failures": [asdict(f) for f in self.failures],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "RunManifest":
        """Inverse of :meth:`to_dict`."""
        manifest = cls(max_workers=data["max_workers"],
                       total_wall_time=data.get("total_wall_time", 0.0),
                       pool_rebuilds=data.get("pool_rebuilds", 0),
                       backend=data.get("backend", ""),
                       transfer_bytes=data.get("transfer_bytes", 0),
                       status=data.get("status", STATUS_COMPLETED),
                       run_id=data.get("run_id", ""))
        for record in data.get("records", []):
            manifest.add(TaskRecord(**record))
        for failure in data.get("failures", []):
            manifest.add_failure(TaskFailure(**failure))
        return manifest

    @classmethod
    def load(cls, path: os.PathLike) -> "RunManifest":
        """Read a manifest previously written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def save(self, path: os.PathLike) -> None:
        """Write the manifest as JSON, atomically.

        Published via temp file + ``os.replace`` (same protocol as the
        artifact cache), so a crash mid-save can never leave a
        truncated or corrupt manifest behind — readers see either the
        old complete file or the new complete file.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(self.to_dict(), handle, indent=2)
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def render(self) -> str:
        """Human-readable per-stage summary table."""
        summary = self.summary()
        headline = (
            f"engine run: {summary['tasks']} tasks, "
            f"{summary['cache_hits']} cached / {summary['computed']} "
            f"computed, {summary['total_wall_time']:.2f}s wall, "
            f"max_workers={summary['max_workers']}")
        if self.backend:
            headline += f", backend={self.backend}"
        if summary["failed"] or summary["skipped"]:
            headline += (f", {summary['failed']} failed / "
                         f"{summary['skipped']} skipped")
        if summary["retries"]:
            headline += f", {summary['retries']} retries"
        if summary["pool_rebuilds"]:
            headline += f", {summary['pool_rebuilds']} pool rebuilds"
        if self.status != STATUS_COMPLETED:
            headline += f", status={self.status}"
        lines = [headline]
        for stage, row in summary["stages"].items():
            lines.append(
                f"  {stage:<16} {row['tasks']:>3} tasks  "
                f"{row['hits']:>3} hit {row['computed']:>3} computed  "
                f"{row['wall_span']:.2f}s span "
                f"({row['task_seconds']:.2f}s task time)")
        for failure in self.failures:
            detail = (f"{failure.error_type}: {failure.message}"
                      if failure.status == "failed"
                      else f"dependency {failure.upstream} failed")
            lines.append(f"  {failure.status:<7} {failure.task_id} "
                         f"[{failure.stage}] {detail}")
        return "\n".join(lines)
