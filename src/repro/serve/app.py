"""The characterisation service: asyncio HTTP front, threaded runs.

``python -m repro.serve`` binds a small stdlib-only HTTP/JSON server
around the durable flow runner:

* **admission first** — tenant quota, then the bounded request queue,
  both decided before a byte of compute; shed requests answer 429 with
  a measured ``Retry-After`` while ``/healthz`` stays responsive;
* **deadline propagation** — the ``X-Repro-Deadline`` header arms a
  per-request :class:`~repro.engine.durability.CancellationToken`; an
  expired deadline returns 504 *with the resumable run id*, and a
  plain retry of the same request resumes the same journal;
* **coalescing** — identical concurrent requests (same tenant, same
  normalised body) share one in-process computation, and the engine's
  cross-process single-flight covers identical requests hitting
  *different* replicas of the service;
* **graceful degradation** — the health ladder walks ``ok ->
  degraded -> draining``: sustained shedding or a disk cache that fell
  back to memory-only marks responses ``degraded: true``; SIGTERM
  stops admissions, drains in-flight runs within
  ``REPRO_SHUTDOWN_GRACE`` seconds, then cancels the stragglers — each
  answers 503 with its journalled, resumable run id, so no admitted
  request is ever silently dropped.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Tuple

from repro.engine.durability import load_run
from repro.errors import (
    InvalidRequest,
    ReproError,
    ServeError,
    ServiceDraining,
    error_payload,
)
from repro.observe import REQUEST_BUCKETS, MetricsRegistry
from repro.serve.admission import AdmissionController
from repro.serve.config import SHED_DEGRADE_THRESHOLD, ServeConfig
from repro.serve.deadlines import (
    DEADLINE_HEADER,
    deadline_token,
    parse_deadline,
)
from repro.serve.handlers import (
    FlowRunner,
    parse_body,
    parse_characterize,
)
from repro.serve.tenants import TenantRegistry

#: Request header naming the tenant (defaults to ``public``).
TENANT_HEADER = "x-repro-tenant"

#: Health ladder states, in degradation order.
HEALTH_OK = "ok"
HEALTH_DEGRADED = "degraded"
HEALTH_DRAINING = "draining"

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ServeApp:
    """All service state behind one event loop.

    ``runner`` is injectable so tests can swap the real durable flow
    for a stub (the admission, deadline, coalescing and drain logic is
    exercised without TCAD in the loop).
    """

    def __init__(self, config: ServeConfig,
                 runner: Optional[FlowRunner] = None):
        self.config = config
        self.runner = runner or FlowRunner(backend=config.backend)
        self.metrics = MetricsRegistry()
        self.admission = AdmissionController(config.queue_limit,
                                             config.workers)
        self.tenants = TenantRegistry(config.tenants_root(),
                                      config.tenant_rps,
                                      config.tenant_burst)
        self.executor = ThreadPoolExecutor(
            max_workers=config.workers,
            thread_name_prefix="repro-serve")
        self.draining = False
        self.cache_degraded = False
        #: Remote-tier degradation is *not* sticky: the breaker
        #: re-attaches when the endpoint recovers, and health follows.
        self.remote_degraded = False
        self.metrics.gauge("engine.cache.remote.degraded").set(0.0)
        #: (tenant, request_key) -> Future of the leader's response.
        self._inflight: Dict[Tuple[str, str], "asyncio.Future"] = {}
        #: Cancellation tokens of requests currently executing.
        self._active_tokens: set = set()
        self._open_requests = 0
        self._shutdown = asyncio.Event()

    # ------------------------------------------------------------------
    # health ladder
    # ------------------------------------------------------------------
    def health(self) -> str:
        """Current rung: ``ok``, ``degraded`` or ``draining``."""
        if self.draining:
            return HEALTH_DRAINING
        if (self.cache_degraded or self.remote_degraded
                or self.admission.consecutive_sheds
                >= SHED_DEGRADE_THRESHOLD):
            return HEALTH_DEGRADED
        return HEALTH_OK

    def begin_drain(self) -> None:
        """SIGTERM/SIGINT entry: stop admitting, start the grace clock."""
        if not self.draining:
            self.draining = True
            self.metrics.counter("serve.drain_started").inc()
        self._shutdown.set()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def handle_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            try:
                parsed = await self._read_request(reader)
            except InvalidRequest as exc:
                await self._write_response(writer,
                                           *self._error_response(exc))
                return
            if parsed is None:
                return
            method, path, headers, body = parsed
            try:
                status, payload, extra = await self._dispatch(
                    method, path, headers, body)
            except ServeError as exc:
                status, payload, extra = self._error_response(exc)
            except ReproError as exc:
                status, payload, extra = 500, {"error": exc.to_dict()}, {}
            except Exception as exc:  # zero silently-dropped requests
                status, payload, extra = (
                    500, {"error": error_payload(exc)}, {})
            await self._write_response(writer, status, payload, extra)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader):
        request_line = await reader.readline()
        if not request_line.strip():
            return None
        try:
            method, target, _ = request_line.decode("latin-1").split()
        except ValueError:
            return None
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            raise InvalidRequest("bad Content-Length header")
        if length:
            body = await reader.readexactly(length)
        path = target.split("?", 1)[0]
        return method.upper(), path, headers, body

    @staticmethod
    async def _write_response(writer: asyncio.StreamWriter, status: int,
                              payload: Dict[str, Any],
                              extra: Dict[str, str]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
                 "Content-Type: application/json",
                 f"Content-Length: {len(body)}",
                 "Connection: close"]
        for name, value in extra.items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
                     + body)
        await writer.drain()

    @staticmethod
    def _error_response(exc: ServeError):
        extra: Dict[str, str] = {}
        if exc.retry_after is not None:
            extra["Retry-After"] = str(int(exc.retry_after))
        return exc.http_status, {"error": exc.to_dict()}, extra

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _dispatch(self, method: str, path: str,
                        headers: Dict[str, str], body: bytes):
        if path == "/healthz":
            return 200, {"status": self.health()}, {}
        if path == "/readyz":
            health = self.health()
            status = 503 if health == HEALTH_DRAINING else 200
            return status, {"status": health}, {}
        if path == "/metrics":
            return 200, self._metrics_payload(), {}
        if path.startswith("/runs/"):
            return self._run_status(path[len("/runs/"):], headers)
        if path == "/characterize":
            if method != "POST":
                return 405, {"error": InvalidRequest(
                    "use POST /characterize").to_dict()}, {}
            return await self._characterize(headers, body)
        return 404, {"error": {
            "type": "NotFound", "code": "serve.not_found",
            "message": f"no route {path!r}", "retryable": False}}, {}

    def _metrics_payload(self) -> Dict[str, Any]:
        return {
            "health": self.health(),
            "admission": self.admission.snapshot(),
            "tenants": self.tenants.snapshot(),
            "metrics": self.metrics.snapshot(),
        }

    def _run_status(self, run_id: str, headers: Dict[str, str]):
        tenant = self.tenants.get(headers.get(TENANT_HEADER, ""))
        try:
            state = load_run(tenant.cache_dir, run_id)
        except ReproError as exc:
            return 404, {"error": exc.to_dict()}, {}
        return 200, {
            "run_id": run_id,
            "tenant": tenant.name,
            "status": state.status,
            "resumes": state.resumes,
            "journalled_tasks": len(state.tasks),
        }, {}

    # ------------------------------------------------------------------
    # the characterisation route
    # ------------------------------------------------------------------
    async def _characterize(self, headers: Dict[str, str], body: bytes):
        started = time.monotonic()
        self.metrics.counter("serve.requests_total").inc()
        self._open_requests += 1
        try:
            status, payload, extra = await self._characterize_inner(
                headers, body)
        except ServeError as exc:
            status, payload, extra = self._error_response(exc)
        except ReproError as exc:
            status, payload, extra = 500, {"error": exc.to_dict()}, {}
        except Exception as exc:  # zero silently-dropped requests
            status, payload, extra = 500, {"error": error_payload(exc)}, {}
        finally:
            self._open_requests -= 1
            self.metrics.histogram(
                "serve.request_seconds", REQUEST_BUCKETS).observe(
                    time.monotonic() - started)
        self.metrics.counter(
            f"serve.responses_{status // 100}xx").inc()
        return status, payload, extra

    async def _characterize_inner(self, headers: Dict[str, str],
                                  body: bytes):
        if self.draining:
            raise ServiceDraining(
                "service is draining (SIGTERM received); "
                "retry against another replica")

        request = parse_characterize(parse_body(body))
        tenant = self.tenants.charge(headers.get(TENANT_HEADER, ""))
        deadline_s = parse_deadline(headers.get(DEADLINE_HEADER),
                                    self.config.default_deadline,
                                    self.config.max_deadline)

        # Coalesce before admission: a follower of an identical
        # in-flight request consumes no queue slot and no compute.
        key = (tenant.name, request.request_key)
        leader_future = self._inflight.get(key)
        if leader_future is not None:
            self.metrics.counter("serve.coalesced_total").inc()
            response = dict(await asyncio.shield(leader_future))
            response["coalesced"] = True
            return 200, response, {}

        ticket = self.admission.admit()
        self.metrics.gauge("serve.inflight").add(1)
        token = deadline_token(deadline_s)
        loop = asyncio.get_running_loop()
        future: "asyncio.Future" = loop.create_future()
        self._inflight[key] = future
        self._active_tokens.add(token)
        try:
            response = await loop.run_in_executor(
                self.executor, self.runner, request, tenant, token)
            # Runners that predate the remote tier only emit the
            # combined "degraded" flag; treat it as the sticky local
            # kind when the split keys are absent.
            if response.get("cache_degraded",
                            response.get("degraded", False)):
                self.cache_degraded = True
            self.remote_degraded = bool(
                response.get("remote_degraded", False))
            self.metrics.gauge("engine.cache.remote.degraded").set(
                1.0 if self.remote_degraded else 0.0)
            response["degraded"] = (response.get("degraded", False)
                                    or self.health() == HEALTH_DEGRADED)
            if not future.done():
                future.set_result(response)
            return 200, response, {}
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
                # Followers re-raise through their own await; stop the
                # "exception was never retrieved" warning here.
                future.exception()
            raise
        finally:
            self._inflight.pop(key, None)
            self._active_tokens.discard(token)
            self.admission.release(ticket)
            self.metrics.gauge("serve.inflight").add(-1)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def serve(self) -> None:
        """Bind, announce, serve until SIGTERM/SIGINT, then drain."""
        server = await asyncio.start_server(
            self.handle_connection, self.config.host, self.config.port)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.begin_drain)
            except (NotImplementedError, RuntimeError):
                pass
        host, port = server.sockets[0].getsockname()[:2]
        print(f"repro.serve listening on http://{host}:{port}",
              flush=True)
        try:
            async with server:
                await self._shutdown.wait()
                await self._drain()
        finally:
            self.executor.shutdown(wait=True)

    async def _drain(self) -> None:
        """Let in-flight runs finish within grace, then cancel them."""
        grace = self.config.grace
        deadline = time.monotonic() + grace
        while self._open_requests and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        if self._open_requests:
            # Grace is up: interrupt the stragglers at their next task
            # boundary; each answers 503 with its resumable run id.
            for token in list(self._active_tokens):
                token.request(reason="drain")
            hard_stop = time.monotonic() + max(grace, 1.0) + 10.0
            while self._open_requests and time.monotonic() < hard_stop:
                await asyncio.sleep(0.05)
        self.metrics.counter("serve.drain_completed").inc()


def run_app(config: ServeConfig,
            runner: Optional[FlowRunner] = None) -> int:
    """Blocking entry point: serve until drained; 0 on clean exit."""
    app = ServeApp(config, runner=runner)
    asyncio.run(app.serve())
    return 0
