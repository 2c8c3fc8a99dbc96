"""Pluggable execution backends for the task-graph scheduler.

Selection (first match wins):

1. an explicit :class:`ExecutionBackend` instance or spec string passed
   to ``Engine(backend=...)`` / ``--backend``;
2. the :data:`BACKEND_ENV` (``REPRO_BACKEND``) environment variable;
3. a :class:`~repro.engine.backends.pool.PoolBackend` as wide as the
   CPUs the process may run on (serial when that is one core).

Spec grammar: ``"serial"`` | ``"pool"`` | ``"pool:N"``.

Several invocations sharing one cache directory need no special
backend: the scheduler claims each key's single-flight lock when it
dispatches the task, so every process computes what no peer has
claimed and reads the rest from the shared store.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from repro.engine.backends.base import (
    ExecutionBackend,
    RESULT_CRASHED,
    RESULT_DONE,
    RESULT_ERROR,
    TaskExecution,
    TaskResult,
    run_stage_inline,
)
from repro.engine.backends.pool import PoolBackend
from repro.engine.backends.serial import SerialBackend
from repro.errors import ReproError

#: Environment variable selecting the execution backend.
BACKEND_ENV = "REPRO_BACKEND"

#: Spec strings accepted by :func:`parse_backend_spec`.
BACKEND_SPECS = ("serial", "pool", "pool:N")


def parse_backend_spec(spec: str) -> ExecutionBackend:
    """Instantiate a backend from a spec string (see module docstring)."""
    text = spec.strip().lower()
    if text == "serial":
        return SerialBackend()
    if text == "pool":
        return PoolBackend()
    if text.startswith("pool:"):
        try:
            workers = int(text[len("pool:"):])
        except ValueError:
            raise ReproError(
                f"bad backend spec {spec!r}: expected 'pool:N' with "
                f"integer N") from None
        return PoolBackend(workers)
    raise ReproError(
        f"unknown backend spec {spec!r} "
        f"(expected one of {', '.join(BACKEND_SPECS)})")


def backend_for_workers(workers: Optional[int] = None
                        ) -> ExecutionBackend:
    """Map a worker-count width onto a backend.

    Width 1 is the serial backend, anything wider a warm pool; ``None``
    is the CPU-affinity width (see
    :func:`~repro.engine.executor.resolve_worker_count`).  The
    ``--workers`` CLI flags think in widths.
    """
    from repro.engine.executor import resolve_worker_count
    count = resolve_worker_count(workers)
    if count == 1:
        return SerialBackend()
    return PoolBackend(count)


def resolve_backend(backend: Optional[Union[str, ExecutionBackend]] = None
                    ) -> Optional[ExecutionBackend]:
    """Resolve explicit arg > ``REPRO_BACKEND``; None when neither set."""
    if backend is not None:
        if isinstance(backend, ExecutionBackend):
            return backend
        if isinstance(backend, str):
            return parse_backend_spec(backend)
        raise ReproError(
            f"backend must be a spec string or ExecutionBackend, "
            f"got {type(backend).__name__}")
    env = os.environ.get(BACKEND_ENV)
    if env:
        return parse_backend_spec(env)
    return None


__all__ = [
    "BACKEND_ENV",
    "BACKEND_SPECS",
    "ExecutionBackend",
    "PoolBackend",
    "RESULT_CRASHED",
    "RESULT_DONE",
    "RESULT_ERROR",
    "SerialBackend",
    "TaskExecution",
    "TaskResult",
    "backend_for_workers",
    "parse_backend_spec",
    "resolve_backend",
    "run_stage_inline",
]
