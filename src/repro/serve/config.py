"""Service configuration: every ``REPRO_SERVE_*`` knob in one place.

All values resolve through :mod:`repro.config`, so a zero, negative,
NaN or non-numeric setting fails loudly at startup — never inside the
admission path of a live request.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.config import resolve_float, resolve_int
from repro.engine.backends import BACKEND_ENV, parse_backend_spec
from repro.engine.cache import resolve_cache_dir
from repro.engine.durability import resolve_shutdown_grace
from repro.errors import ConfigError

#: Bound on requests in the system (queued + running) before shedding.
QUEUE_ENV = "REPRO_SERVE_QUEUE"
DEFAULT_QUEUE = 16

#: Worker threads executing characterisation runs.
WORKERS_ENV = "REPRO_SERVE_WORKERS"
DEFAULT_WORKERS = 2

#: Per-tenant sustained request rate (token-bucket refill) [req/s].
TENANT_RPS_ENV = "REPRO_SERVE_TENANT_RPS"
DEFAULT_TENANT_RPS = 5.0

#: Per-tenant burst capacity (token-bucket size) [requests].
TENANT_BURST_ENV = "REPRO_SERVE_TENANT_BURST"
DEFAULT_TENANT_BURST = 10.0

#: Default per-request deadline when the client sends none [s].
#: 0 disables the implicit deadline (requests may run unbounded).
DEADLINE_ENV = "REPRO_SERVE_DEADLINE"
DEFAULT_DEADLINE = 0.0

#: Ceiling on any client-requested deadline [s].
MAX_DEADLINE_ENV = "REPRO_SERVE_MAX_DEADLINE"
DEFAULT_MAX_DEADLINE = 3600.0

#: Engine backend of each request's run.  Serial by default:
#: concurrency comes from the worker threads, not from nested pools.
DEFAULT_BACKEND = "serial"

#: Consecutive shed decisions that tip the health ladder to degraded.
SHED_DEGRADE_THRESHOLD = 8


@dataclass
class ServeConfig:
    """Resolved service settings (validated, ready to run)."""

    host: str = "127.0.0.1"
    port: int = 8349
    cache_dir: Optional[str] = None
    queue_limit: int = DEFAULT_QUEUE
    workers: int = DEFAULT_WORKERS
    tenant_rps: float = DEFAULT_TENANT_RPS
    tenant_burst: float = DEFAULT_TENANT_BURST
    default_deadline: float = DEFAULT_DEADLINE
    max_deadline: float = DEFAULT_MAX_DEADLINE
    grace: float = field(default_factory=resolve_shutdown_grace)
    backend: str = DEFAULT_BACKEND

    @classmethod
    def from_env(cls,
                 host: Optional[str] = None,
                 port: Optional[int] = None,
                 cache_dir: Optional[str] = None,
                 queue_limit: Optional[int] = None,
                 workers: Optional[int] = None,
                 tenant_rps: Optional[float] = None,
                 tenant_burst: Optional[float] = None,
                 default_deadline: Optional[float] = None,
                 max_deadline: Optional[float] = None,
                 grace: Optional[float] = None,
                 backend: Optional[str] = None) -> "ServeConfig":
        """Resolve explicit > environment > default for every knob."""
        backend = backend or os.environ.get(BACKEND_ENV) or DEFAULT_BACKEND
        parse_backend_spec(backend)  # a bad spec fails here, not per request
        resolved_cache = resolve_cache_dir(cache_dir)
        if resolved_cache is None:
            raise ConfigError(
                "the characterisation service needs a disk cache for "
                "durable runs: set REPRO_CACHE_DIR or pass --cache-dir")
        config = cls(
            host=host if host is not None else "127.0.0.1",
            port=port if port is not None else 8349,
            cache_dir=str(resolved_cache),
            queue_limit=resolve_int(QUEUE_ENV, DEFAULT_QUEUE,
                                    queue_limit, positive=True),
            workers=resolve_int(WORKERS_ENV, DEFAULT_WORKERS,
                                workers, positive=True),
            tenant_rps=resolve_float(TENANT_RPS_ENV, DEFAULT_TENANT_RPS,
                                     tenant_rps, positive=True),
            tenant_burst=resolve_float(TENANT_BURST_ENV,
                                       DEFAULT_TENANT_BURST,
                                       tenant_burst, positive=True),
            default_deadline=resolve_float(DEADLINE_ENV, DEFAULT_DEADLINE,
                                           default_deadline, minimum=0.0),
            max_deadline=resolve_float(MAX_DEADLINE_ENV,
                                       DEFAULT_MAX_DEADLINE,
                                       max_deadline, positive=True),
            grace=resolve_shutdown_grace(grace),
            backend=backend,
        )
        return config

    def tenants_root(self) -> str:
        """Root of the per-tenant cache namespaces."""
        return os.path.join(str(self.cache_dir), "tenants")
