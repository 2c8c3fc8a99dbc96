"""The service app in-process: routing, admission, deadlines,
coalescing and drain — a stub runner stands in for the real flow, so
these are fast and deterministic (marker ``serve``)."""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.engine.durability import CancellationToken
from repro.errors import (
    DeadlineExceeded,
    InvalidRequest,
    RunInterrupted,
    ServiceDraining,
)
from repro.serve import ServeApp, ServeConfig
from repro.serve.handlers import FlowRunner, parse_characterize

pytestmark = pytest.mark.serve


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
class StubRunner:
    """Contract-compatible stand-in for :class:`FlowRunner`."""

    def __init__(self, delay: float = 0.0, gate: threading.Event = None,
                 degraded: bool = False):
        self.delay = delay
        self.gate = gate
        self.degraded = degraded
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, request, tenant, token):
        with self._lock:
            self.calls += 1
        if self.gate is not None:
            assert self.gate.wait(10.0), "stub gate never opened"
        deadline = time.monotonic() + self.delay
        while time.monotonic() < deadline:
            if token.is_set():
                break
            time.sleep(0.005)
        if token.expired:
            raise DeadlineExceeded(
                f"deadline expired before run {request.run_id} "
                f"completed", run_id=request.run_id)
        if token.is_set():
            raise ServiceDraining(
                f"draining; run {request.run_id} resumes on retry")
        return {"status": "completed", "run_id": request.run_id,
                "tenant": tenant.name, "resumed": 0,
                "degraded": self.degraded}


def make_config(tmp_path, **overrides) -> ServeConfig:
    settings = dict(cache_dir=tmp_path, queue_limit=4, workers=2,
                    tenant_rps=1000.0, tenant_burst=1000.0, grace=1.0)
    settings.update(overrides)
    return ServeConfig.from_env(**settings)


async def http(port, method, path, body=None, headers=None,
               timeout=15.0):
    """Raw-socket JSON request against the app under test."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    data = json.dumps(body).encode() if body is not None else b""
    lines = [f"{method} {path} HTTP/1.1", "Host: test",
             f"Content-Length: {len(data)}"]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + data)
    await writer.drain()
    raw = await asyncio.wait_for(reader.read(), timeout)
    writer.close()
    await writer.wait_closed()
    head, _, payload = raw.partition(b"\r\n\r\n")
    header_lines = head.decode("latin-1").split("\r\n")
    status = int(header_lines[0].split()[1])
    resp_headers = {}
    for line in header_lines[1:]:
        name, _, value = line.partition(":")
        resp_headers[name.strip().lower()] = value.strip()
    return status, json.loads(payload), resp_headers


def with_app(config, runner, scenario):
    """Run ``scenario(app, port)`` against a live in-process server."""
    async def main():
        app = ServeApp(config, runner=runner)
        server = await asyncio.start_server(
            app.handle_connection, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            async with server:
                await scenario(app, port)
        finally:
            app.executor.shutdown(wait=True, cancel_futures=True)
    asyncio.run(main())


# ----------------------------------------------------------------------
# routing and plumbing
# ----------------------------------------------------------------------
def test_health_ready_metrics_routes(tmp_path):
    async def scenario(app, port):
        status, body, _ = await http(port, "GET", "/healthz")
        assert (status, body) == (200, {"status": "ok"})
        status, body, _ = await http(port, "GET", "/readyz")
        assert (status, body) == (200, {"status": "ok"})
        status, body, _ = await http(port, "GET", "/metrics")
        assert status == 200
        assert body["health"] == "ok"
        assert body["admission"]["limit"] == 4
        status, _, _ = await http(port, "GET", "/nope")
        assert status == 404
        status, _, _ = await http(port, "GET", "/characterize")
        assert status == 405

    with_app(make_config(tmp_path), StubRunner(), scenario)


def test_characterize_happy_path(tmp_path):
    runner = StubRunner()

    async def scenario(app, port):
        status, body, _ = await http(
            port, "POST", "/characterize", {"cells": ["INV1X1"]})
        assert status == 200
        assert body["status"] == "completed"
        assert body["run_id"].startswith("req-")
        assert body["tenant"] == "public"
        assert body["degraded"] is False
        status, metrics, _ = await http(port, "GET", "/metrics")
        assert metrics["metrics"]["serve.requests_total"]["value"] == 1
        assert metrics["metrics"]["serve.responses_2xx"]["value"] == 1

    with_app(make_config(tmp_path), runner, scenario)
    assert runner.calls == 1


def test_invalid_bodies_get_400_with_error_code(tmp_path):
    async def scenario(app, port):
        # a bad Content-Length is answered too, never dropped
        for body, length in ((b"not json", 8), (b'["list"]', 8),
                             (b"{}", "abc"), (b"{}", -5)):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(b"POST /characterize HTTP/1.1\r\nHost: t\r\n"
                         + f"Content-Length: {length}\r\n\r\n".encode()
                         + body)
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            assert b"400" in raw.split(b"\r\n", 1)[0]
            assert b"serve.bad_request" in raw
        status, payload, _ = await http(
            port, "POST", "/characterize", {"cells": ["NOPE"]})
        assert status == 400
        assert payload["error"]["code"] == "serve.bad_request"
        status, payload, _ = await http(
            port, "POST", "/characterize", {"unexpected": 1})
        assert status == 400

    with_app(make_config(tmp_path), StubRunner(), scenario)


def test_run_ids_pin_the_documented_requests():
    readme_body = {"cells": ["INV1X1"], "variants": ["2D"],
                   "extraction_variants": ["TRADITIONAL"]}
    assert parse_characterize(readme_body).run_id == "req-8f69f4df3f9032bd"
    assert parse_characterize({}).run_id == "req-f44c669dab37285d"
    # spelling a default out is the same request
    spelled = {"variants": ["2D", "1-ch", "2-ch", "4-ch"], "dt": 2e-11}
    assert parse_characterize(spelled).run_id == "req-f44c669dab37285d"


@pytest.mark.parametrize("body", [
    {"cells": []}, {"cells": "INV1X1"}, {"variants": ["3D"]},
    {"extraction_variants": ["two"]}, {"dt": 0}, {"dt": "nan"},
    {"dt": True}, {"dt": [1e-11]},
])
def test_invalid_requests_are_refused_when_parsed(body):
    with pytest.raises(InvalidRequest):
        parse_characterize(body)


def test_tenant_header_validation_and_isolation(tmp_path):
    async def scenario(app, port):
        status, body, _ = await http(
            port, "POST", "/characterize", {"cells": ["INV1X1"]},
            headers={"X-Repro-Tenant": "alice"})
        assert status == 200 and body["tenant"] == "alice"
        status, payload, _ = await http(
            port, "POST", "/characterize", {"cells": ["INV1X1"]},
            headers={"X-Repro-Tenant": "../escape"})
        assert status == 400
        assert payload["error"]["code"] == "serve.bad_request"

    with_app(make_config(tmp_path), StubRunner(), scenario)
    import os
    assert os.path.isdir(os.path.join(tmp_path, "tenants", "alice"))
    assert not os.path.exists(os.path.join(tmp_path, "escape"))


# ----------------------------------------------------------------------
# admission and quotas
# ----------------------------------------------------------------------
def test_queue_full_sheds_with_retry_after(tmp_path):
    gate = threading.Event()
    runner = StubRunner(gate=gate)

    async def scenario(app, port):
        # Occupy the single queue slot (distinct body: no coalescing).
        blocked = asyncio.ensure_future(http(
            port, "POST", "/characterize", {"cells": ["INV1X1"]}))
        for _ in range(200):
            if app.admission.inflight:
                break
            await asyncio.sleep(0.01)
        assert app.admission.inflight == 1
        status, payload, headers = await http(
            port, "POST", "/characterize", {"cells": ["AND2X1"]})
        assert status == 429
        assert payload["error"]["code"] == "serve.overloaded"
        assert payload["error"]["retryable"] is True
        assert int(headers["retry-after"]) >= 1
        # /healthz answers while the queue is full.
        status, _, _ = await http(port, "GET", "/healthz")
        assert status == 200
        gate.set()
        status, _, _ = await blocked
        assert status == 200

    with_app(make_config(tmp_path, queue_limit=1, workers=1), runner,
             scenario)


def test_quota_exhaustion_is_per_tenant(tmp_path):
    async def scenario(app, port):
        status, _, _ = await http(
            port, "POST", "/characterize", {"cells": ["INV1X1"]},
            headers={"X-Repro-Tenant": "alice"})
        assert status == 200
        status, payload, headers = await http(
            port, "POST", "/characterize", {"cells": ["AND2X1"]},
            headers={"X-Repro-Tenant": "alice"})
        assert status == 429
        assert payload["error"]["code"] == "serve.quota_exceeded"
        assert int(headers["retry-after"]) >= 1
        status, _, _ = await http(
            port, "POST", "/characterize", {"cells": ["AND2X1"]},
            headers={"X-Repro-Tenant": "bob"})
        assert status == 200

    with_app(make_config(tmp_path, tenant_rps=0.001, tenant_burst=1.0),
             StubRunner(), scenario)


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------
def test_deadline_header_maps_to_504_with_resumable_run_id(tmp_path):
    runner = StubRunner(delay=30.0)

    async def scenario(app, port):
        status, payload, _ = await http(
            port, "POST", "/characterize", {"cells": ["INV1X1"]},
            headers={"X-Repro-Deadline": "0.05"})
        assert status == 504
        assert payload["error"]["code"] == "serve.deadline_exceeded"
        assert payload["error"]["retryable"] is True
        expected = parse_characterize({"cells": ["INV1X1"]}).run_id
        assert payload["error"]["run_id"] == expected

    with_app(make_config(tmp_path), runner, scenario)


def test_invalid_deadline_header_is_400(tmp_path):
    async def scenario(app, port):
        for bad in ("nan", "-1", "soon"):
            status, payload, _ = await http(
                port, "POST", "/characterize", {"cells": ["INV1X1"]},
                headers={"X-Repro-Deadline": bad})
            assert status == 400
            assert payload["error"]["code"] == "serve.bad_request"

    with_app(make_config(tmp_path), StubRunner(), scenario)


def test_deadline_is_clamped_to_the_service_maximum(tmp_path):
    from repro.serve.deadlines import parse_deadline

    assert parse_deadline("7200", 0.0, 3600.0) == 3600.0
    assert parse_deadline(None, 30.0, 3600.0) == 30.0
    assert parse_deadline(None, 0.0, 3600.0) is None
    assert parse_deadline("5", 30.0, 3600.0) == 5.0


def test_flow_runner_maps_interruptions():
    request = parse_characterize({"cells": ["INV1X1"]})
    token = CancellationToken(grace=1.0)
    token.set_deadline(0.0)
    exc = FlowRunner._interruption_error(
        RunInterrupted("stopped", run_id="req-x"), request, token)
    assert isinstance(exc, DeadlineExceeded) and exc.run_id == "req-x"
    drained = CancellationToken(grace=1.0)
    drained.request(reason="drain")
    exc = FlowRunner._interruption_error(
        RunInterrupted("stopped"), request, drained)
    assert isinstance(exc, ServiceDraining)


# ----------------------------------------------------------------------
# coalescing
# ----------------------------------------------------------------------
def test_identical_concurrent_requests_coalesce(tmp_path):
    gate = threading.Event()
    runner = StubRunner(gate=gate)

    async def scenario(app, port):
        body = {"cells": ["INV1X1"]}
        leader = asyncio.ensure_future(
            http(port, "POST", "/characterize", body))
        for _ in range(200):
            if app._inflight:
                break
            await asyncio.sleep(0.01)
        followers = [asyncio.ensure_future(
            http(port, "POST", "/characterize", body)) for _ in range(3)]
        await asyncio.sleep(0.05)
        gate.set()
        responses = [await leader] + [await f for f in followers]
        assert all(status == 200 for status, _, _ in responses)
        run_ids = {payload["run_id"] for _, payload, _ in responses}
        assert len(run_ids) == 1
        coalesced = [payload for _, payload, _ in responses
                     if payload.get("coalesced")]
        assert len(coalesced) == 3
        _, metrics, _ = await http(port, "GET", "/metrics")
        assert metrics["metrics"]["serve.coalesced_total"]["value"] == 3

    with_app(make_config(tmp_path), runner, scenario)
    assert runner.calls == 1  # one computation for four requests


def test_different_requests_do_not_coalesce(tmp_path):
    runner = StubRunner()

    async def scenario(app, port):
        for cells in (["INV1X1"], ["AND2X1"]):
            status, _, _ = await http(
                port, "POST", "/characterize", {"cells": cells})
            assert status == 200

    with_app(make_config(tmp_path), runner, scenario)
    assert runner.calls == 2


# ----------------------------------------------------------------------
# degradation ladder and drain
# ----------------------------------------------------------------------
def test_degraded_runs_are_marked(tmp_path):
    runner = StubRunner(degraded=True)

    async def scenario(app, port):
        status, body, _ = await http(
            port, "POST", "/characterize", {"cells": ["INV1X1"]})
        assert status == 200 and body["degraded"] is True
        assert app.health() == "degraded"
        status, body, _ = await http(port, "GET", "/healthz")
        assert body["status"] == "degraded"
        status, _, _ = await http(port, "GET", "/readyz")
        assert status == 200  # degraded still accepts work

    with_app(make_config(tmp_path), runner, scenario)


def test_sustained_shedding_degrades_health(tmp_path):
    from repro.serve.config import SHED_DEGRADE_THRESHOLD

    gate = threading.Event()
    runner = StubRunner(gate=gate)

    async def scenario(app, port):
        blocked = asyncio.ensure_future(http(
            port, "POST", "/characterize", {"cells": ["INV1X1"]}))
        for _ in range(200):
            if app.admission.inflight:
                break
            await asyncio.sleep(0.01)
        cells = ["AND2X1", "AND3X1", "AOI2X1", "MUX2X1", "NAND2X1",
                 "NAND3X1", "NOR2X1", "NOR3X1", "OAI2X1", "OR2X1"]
        for i in range(SHED_DEGRADE_THRESHOLD):
            status, _, _ = await http(
                port, "POST", "/characterize",
                {"cells": [cells[i % len(cells)]]})
            assert status == 429
        status, body, _ = await http(port, "GET", "/healthz")
        assert body["status"] == "degraded"
        gate.set()
        await blocked

    with_app(make_config(tmp_path, queue_limit=1, workers=1), runner,
             scenario)


def test_drain_rejects_new_work_and_finishes_in_flight(tmp_path):
    gate = threading.Event()
    runner = StubRunner(gate=gate)

    async def scenario(app, port):
        in_flight = asyncio.ensure_future(http(
            port, "POST", "/characterize", {"cells": ["INV1X1"]}))
        for _ in range(200):
            if app.admission.inflight:
                break
            await asyncio.sleep(0.01)
        app.begin_drain()
        status, body, _ = await http(port, "GET", "/healthz")
        assert (status, body["status"]) == (200, "draining")
        status, _, _ = await http(port, "GET", "/readyz")
        assert status == 503
        status, payload, _ = await http(
            port, "POST", "/characterize", {"cells": ["AND2X1"]})
        assert status == 503
        assert payload["error"]["code"] == "serve.draining"
        gate.set()
        status, _, _ = await in_flight
        assert status == 200  # admitted work still answers
        await app._drain()

    with_app(make_config(tmp_path), runner, scenario)


def test_drain_cancels_stragglers_after_grace(tmp_path):
    runner = StubRunner(delay=60.0)

    async def scenario(app, port):
        in_flight = asyncio.ensure_future(http(
            port, "POST", "/characterize", {"cells": ["INV1X1"]}))
        for _ in range(200):
            if app.admission.inflight:
                break
            await asyncio.sleep(0.01)
        app.begin_drain()
        await app._drain()  # grace 0.2s, then tokens are cancelled
        status, payload, _ = await in_flight
        assert status == 503
        assert payload["error"]["code"] == "serve.draining"

    with_app(make_config(tmp_path, grace=0.2), runner, scenario)
