"""Request handling: JSON body -> durable flow run -> JSON response.

:func:`parse_characterize` turns an HTTP body into a validated
:class:`CharacterizeRequest` carrying a
:class:`~repro.flows.full_flow.FlowSpec` — the same request value
:func:`repro.flows.run_durable_flow` builds from its keywords — so the
derived run id (and hence the journal a retry resumes) depends only on
the *meaning* of the request, not on which defaults the client spelled
out.

:class:`FlowRunner` executes one admitted request on a worker thread:
a per-tenant engine (isolated cache namespace), the request's
cancellation token threaded into the scheduler, and the durable-run
journal keyed by the deterministic run id.  A deadline or drain that
interrupts the run surfaces as a *resumable* service error; a disk
cache that degraded to memory-only mid-run still answers, with the
response marked ``degraded: true``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.engine import Engine
from repro.engine.durability import CancellationToken
from repro.errors import (
    ConfigError,
    DeadlineExceeded,
    InvalidRequest,
    ReproError,
    RunInterrupted,
    ServiceDraining,
)
from repro.flows.durable import DurableFlowRun, run_durable_spec
from repro.flows.full_flow import FlowSpec
from repro.serve.tenants import Tenant

#: Request body keys :func:`parse_characterize` accepts.
ALLOWED_KEYS = frozenset(
    {"cells", "variants", "extraction_variants", "dt"})


@dataclass(frozen=True)
class CharacterizeRequest:
    """One validated characterisation request.

    ``run_id`` is the deterministic fingerprint of ``spec``'s journal
    record — two clients posting the same body get the same run id,
    which is what lets the coalescing layer and the cross-process
    single-flight collapse them onto one computation.
    """

    spec: FlowSpec
    run_id: str

    @property
    def request_key(self) -> str:
        """Coalescing key (identical requests share one computation)."""
        return self.run_id


def parse_body(raw: bytes) -> Dict[str, Any]:
    """Decode a request body as a JSON object."""
    if not raw:
        return {}
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise InvalidRequest(f"request body is not valid JSON: {exc}") \
            from exc
    if not isinstance(payload, dict):
        raise InvalidRequest("request body must be a JSON object")
    return payload


def parse_characterize(payload: Dict[str, Any]) -> CharacterizeRequest:
    """Validate a ``POST /characterize`` body into a request object."""
    unknown = set(payload) - ALLOWED_KEYS
    if unknown:
        raise InvalidRequest(
            f"unknown request fields: {', '.join(sorted(unknown))}; "
            f"allowed: {', '.join(sorted(ALLOWED_KEYS))}")

    for key in ("cells", "variants", "extraction_variants"):
        raw = payload.get(key)
        if raw is not None and not (isinstance(raw, list) and raw):
            raise InvalidRequest(
                f"{key!r} must be a non-empty JSON array of names")
    try:
        spec = FlowSpec(**payload)   # the allowed keys are its fields
    except ConfigError as exc:
        raise InvalidRequest(str(exc)) from exc
    return CharacterizeRequest(spec=spec, run_id=spec.run_id)


def _headline_or_none(result) -> Optional[Dict[str, float]]:
    """The paper-headline block, when the request covers its variants."""
    try:
        return result.headline()
    except Exception:
        return None


class FlowRunner:
    """Executes admitted requests as durable runs (one per call).

    ``backend`` is the backend spec of the per-request engines, as
    :class:`~repro.serve.config.ServeConfig` resolved and checked it.
    """

    def __init__(self, backend: str):
        self.backend = backend

    def __call__(self, request: CharacterizeRequest, tenant: Tenant,
                 cancellation: CancellationToken) -> Dict[str, Any]:
        engine = Engine(backend=self.backend,
                        cache_dir=tenant.cache_dir)
        try:
            run = run_durable_spec(request.spec, engine=engine,
                                   run_id=request.run_id,
                                   cancellation=cancellation)
        except RunInterrupted as exc:
            raise self._interruption_error(exc, request, cancellation) \
                from exc
        return self._response(run, tenant, engine)

    @staticmethod
    def _interruption_error(exc: RunInterrupted,
                            request: CharacterizeRequest,
                            cancellation: CancellationToken) -> ReproError:
        run_id = exc.run_id or request.run_id
        if cancellation.expired:
            return DeadlineExceeded(
                f"deadline expired before run {run_id} completed; "
                f"retry the same request to resume it", run_id=run_id)
        return ServiceDraining(
            f"service is draining; run {run_id} was journalled and "
            f"resumes on retry")

    @staticmethod
    def _response(run: DurableFlowRun, tenant: Tenant,
                  engine: Engine) -> Dict[str, Any]:
        # Local disk degradation is sticky for the process (a broken
        # disk stays broken); remote-tier degradation is transient —
        # the breaker re-attaches when the endpoint recovers — so the
        # two travel as separate keys and the app flags them apart.
        cache_degraded = engine.cache.write_errors > 0
        remote_degraded = engine.cache.remote_degraded
        result = run.result
        body: Dict[str, Any] = {
            "status": "completed",
            "run_id": run.run_id,
            "tenant": tenant.name,
            "resumed": run.resumed,
            "degraded": cache_degraded or remote_degraded,
            "cache_degraded": cache_degraded,
            "remote_degraded": remote_degraded,
            "manifest": result.manifest.summary()
            if result.manifest is not None else None,
        }
        if engine.cache.remote is not None:
            body["remote_cache"] = engine.cache.remote.stats()
        headline = _headline_or_none(result)
        if headline is not None:
            body["headline"] = headline
        return body
