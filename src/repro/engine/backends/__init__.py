"""Pluggable execution backends for the task-graph scheduler.

Selection (first match wins, in :func:`resolve_backend`):

1. an explicit :class:`ExecutionBackend` instance or spec string passed
   to ``Engine(backend=...)`` / ``--backend``;
2. the :data:`BACKEND_ENV` (``REPRO_BACKEND``) environment variable;
3. a :class:`~repro.engine.backends.pool.PoolBackend` as wide as the
   CPUs the process may run on (serial when that is one core).

Spec grammar: ``"serial"`` | ``"pool"`` | ``"pool:N"``.  It is the one
way to give an engine's width; a bad spec is a
:class:`~repro.errors.ConfigError`.

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
    run_stage,
)
from repro.engine.backends.pool import PoolBackend
from repro.engine.backends.serial import SerialBackend
from repro.errors import ConfigError, ReproError

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
            raise ConfigError(
                f"bad backend spec {spec!r}: expected 'pool:N' with "
                f"integer N") from None
        return PoolBackend(workers)
    raise ConfigError(
        f"unknown backend spec {spec!r} "
        f"(expected one of {', '.join(BACKEND_SPECS)})")


def resolve_backend(backend: Optional[Union[str, ExecutionBackend]] = None
                    ) -> ExecutionBackend:
    """Resolve explicit arg > ``REPRO_BACKEND`` > the CPU-affinity default.

    The default is a pool as wide as the CPUs this process may run on
    (see :func:`~repro.engine.executor.resolve_worker_count`), or the
    serial backend when that is one core.
    """
    if backend is None:
        backend = os.environ.get(BACKEND_ENV) or None
    if backend is None:
        from repro.engine.executor import resolve_worker_count
        workers = resolve_worker_count()
        return SerialBackend() if workers == 1 else PoolBackend(workers)
    if isinstance(backend, ExecutionBackend):
        return backend
    if isinstance(backend, str):
        return parse_backend_spec(backend)
    raise ReproError(
        f"backend must be a spec string or ExecutionBackend, "
        f"got {type(backend).__name__}")


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
    "parse_backend_spec",
    "resolve_backend",
    "run_stage",
]
