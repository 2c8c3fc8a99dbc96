"""``python -m repro.serve`` — run the characterisation service.

Binds the asyncio HTTP front end of :mod:`repro.serve.app` and serves
until SIGTERM/SIGINT, then drains within ``REPRO_SHUTDOWN_GRACE``
seconds and exits 0.  Configuration errors (bad ``REPRO_SERVE_*``
values, no resolvable cache directory) fail fast with exit code 2.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ConfigError
from repro.observe import configure_logging
from repro.serve.app import run_app
from repro.serve.config import ServeConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Multi-tenant standard-cell characterisation "
                    "service with admission control, per-request "
                    "deadlines and graceful degradation.")
    parser.add_argument("--host", default=None,
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=None,
                        help="bind port (default 8349; 0 = ephemeral)")
    parser.add_argument("--cache-dir", default=None,
                        help="cache root for tenant namespaces and "
                             "run journals (default REPRO_CACHE_DIR)")
    parser.add_argument("--queue", type=int, default=None, metavar="N",
                        help="bound on requests in the system before "
                             "shedding (default REPRO_SERVE_QUEUE)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="worker threads executing runs "
                             "(default REPRO_SERVE_WORKERS)")
    parser.add_argument("--tenant-rps", type=float, default=None,
                        metavar="R",
                        help="per-tenant sustained request rate "
                             "(default REPRO_SERVE_TENANT_RPS)")
    parser.add_argument("--tenant-burst", type=float, default=None,
                        metavar="B",
                        help="per-tenant burst capacity "
                             "(default REPRO_SERVE_TENANT_BURST)")
    parser.add_argument("--deadline", type=float, default=None,
                        metavar="S",
                        help="implicit per-request deadline in seconds "
                             "(default REPRO_SERVE_DEADLINE; 0 = none)")
    parser.add_argument("--grace", type=float, default=None, metavar="S",
                        help="drain window after SIGTERM "
                             "(default REPRO_SHUTDOWN_GRACE)")
    parser.add_argument("--backend", default=None,
                        help="engine backend per request: serial, "
                             "pool or pool:N (default REPRO_BACKEND, "
                             "else serial)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging()
    try:
        config = ServeConfig.from_env(
            host=args.host, port=args.port, cache_dir=args.cache_dir,
            queue_limit=args.queue, workers=args.workers,
            tenant_rps=args.tenant_rps, tenant_burst=args.tenant_burst,
            default_deadline=args.deadline, grace=args.grace,
            backend=args.backend)
    except ConfigError as exc:
        print(f"repro.serve: {exc}", file=sys.stderr)
        return 2
    return run_app(config)


if __name__ == "__main__":  # pragma: no cover - exercised as a script
    sys.exit(main())
