"""Deterministic in-process execution, one task at a time.

The reference backend: tasks run in the submitting process, in exact
submission order (the scheduler admits one task at a time in
topological order, so compute order — and therefore deterministic
fault-draw order — matches the pre-1.5 serial engine).  A task runs
when it is submitted and its result is reported by the next
:meth:`poll`, so cancellation checks and retry bookkeeping stay at task
boundaries and a cancellation drain never starts new work.
"""

from __future__ import annotations

from typing import List, Optional

from repro.engine.backends.base import (
    ExecutionBackend,
    TaskExecution,
    TaskResult,
    run_stage,
)


class SerialBackend(ExecutionBackend):
    """In-process execution (the ``"serial"`` spec)."""

    name = "serial"
    workers = 1

    def __init__(self) -> None:
        super().__init__()
        self._done: List[TaskResult] = []

    def submit(self, execution: TaskExecution) -> None:
        result = run_stage(execution)
        # the pre-1.5 serial path labelled in-process computes "main"
        result.worker = "main"
        self._done.append(result)

    def poll(self, timeout: Optional[float]) -> List[TaskResult]:
        # every submitted task already ran: nothing to wait for
        done, self._done = self._done, []
        return done

    def reset(self) -> None:
        self._done.clear()
