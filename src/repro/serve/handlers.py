"""Request handling: JSON body -> durable flow run -> JSON response.

:func:`parse_characterize` turns an HTTP body into a validated
:class:`CharacterizeRequest` whose parameters are normalised exactly
like :func:`repro.flows.run_durable_flow` normalises its own — so the
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
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.cells.library import CELL_NAMES
from repro.cells.variants import DeviceVariant
from repro.config import require_finite_float
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
from repro.flows.durable import (
    DurableFlowRun,
    derive_run_id,
    flow_record,
    run_durable_flow,
)
from repro.geometry.transistor_layout import ChannelCount
from repro.ppa.runner import DEFAULT_DT
from repro.serve.tenants import Tenant

#: Request body keys :func:`parse_characterize` accepts.
ALLOWED_KEYS = frozenset(
    {"cells", "variants", "extraction_variants", "dt"})

_VARIANT_BY_VALUE = {v.value: v for v in DeviceVariant}
_CHANNEL_BY_NAME = {c.name: c for c in ChannelCount}


@dataclass
class CharacterizeRequest:
    """One validated characterisation request.

    ``flow`` is the journal-ready flow record and ``run_id`` its
    deterministic fingerprint — two clients posting the same body get
    the same run id, which is what lets the coalescing layer and the
    cross-process single-flight collapse them onto one computation.
    """

    cells: List[str]
    variants: List[DeviceVariant]
    channels: List[ChannelCount]
    dt: float
    flow: Dict[str, Any] = field(default_factory=dict)
    run_id: str = ""

    @property
    def request_key(self) -> str:
        """Coalescing key (identical requests share one computation)."""
        return self.run_id


def _parse_names(payload: Dict[str, Any], key: str,
                 known: Dict[str, Any], what: str) -> Optional[list]:
    raw = payload.get(key)
    if raw is None:
        return None
    if not isinstance(raw, list) or not raw:
        raise InvalidRequest(
            f"{key!r} must be a non-empty JSON array of {what} names")
    resolved = []
    for item in raw:
        if not isinstance(item, str) or item not in known:
            raise InvalidRequest(
                f"unknown {what} {item!r} in {key!r}; known: "
                f"{', '.join(sorted(known))}")
        resolved.append(known[item])
    return resolved


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

    cells = _parse_names(payload, "cells",
                         {name: name for name in CELL_NAMES}, "cell")
    variants = _parse_names(payload, "variants", _VARIANT_BY_VALUE,
                            "variant")
    channels = _parse_names(payload, "extraction_variants",
                            _CHANNEL_BY_NAME, "channel variant")

    dt = payload.get("dt")
    if dt is not None:
        if isinstance(dt, bool) or not isinstance(dt, (int, float, str)):
            raise InvalidRequest("'dt' must be a positive number")
        try:
            dt = require_finite_float("dt", dt, positive=True)
        except ConfigError as exc:
            raise InvalidRequest(str(exc)) from exc
    else:
        dt = DEFAULT_DT

    # Normalise defaults exactly like run_durable_flow does, so the
    # derived run id is invariant to spelling the defaults out.
    cells = cells if cells else list(CELL_NAMES)
    variants = variants if variants else list(DeviceVariant)
    channels = channels if channels else list(ChannelCount)

    flow = flow_record(cells, variants, channels, None, None, dt)
    return CharacterizeRequest(
        cells=cells, variants=variants, channels=channels, dt=dt,
        flow=flow, run_id=derive_run_id(flow))


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
            run = run_durable_flow(
                cells=request.cells,
                variants=request.variants,
                extraction_variants=request.channels,
                dt=request.dt,
                engine=engine,
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
