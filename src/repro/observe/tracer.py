"""Span tracer with contextvars propagation and a no-op disabled mode.

A :class:`Tracer` records *spans* (named, nested durations with
attributes) and *events* (instant points), and owns a
:class:`~repro.observe.metrics.MetricsRegistry`.  The current span is
carried in a :class:`contextvars.ContextVar`, so nesting follows the
call stack — including through generators and context managers —
without any explicit parent plumbing.

Cross-process nesting works by *export and merge*: a pool worker runs
its task under a fresh tracer, ships the recorded spans and a metrics
snapshot back with the task result, and the parent re-roots them under
the task's parent-side span (see ``repro.engine.scheduler``).  Span ids
are ``"<pid>-<seq>"`` strings, so ids from different workers can never
collide in the merged stream.

When tracing is off, every instrumentation site costs one
``get_tracer()`` (a ContextVar read) plus an attribute check — the
:data:`NULL_TRACER` singleton allocates nothing and records nothing.
"""

from __future__ import annotations

import json
import logging
import os
import time
from contextvars import ContextVar
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.observe.metrics import (
    ITERATION_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

#: Enables tracing process-wide.  ``1``/``true``/``yes``/``on`` enable
#: in-memory tracing; any other non-empty value is treated as an output
#: directory that engine runs export trace files into.
TRACE_ENV = "REPRO_TRACE"

#: Log level of the ``repro`` logger (``DEBUG``, ``INFO``, ...); when
#: set, a JSON-lines handler is installed on first observe use.
LOG_LEVEL_ENV = "REPRO_LOG_LEVEL"

_TRUE_VALUES = ("1", "true", "yes", "on")
_FALSE_VALUES = ("", "0", "false", "no", "off")

logger = logging.getLogger("repro.observe")


class _JsonLineFormatter(logging.Formatter):
    """One JSON object per log record (machine-greppable logs)."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "t": round(record.created, 6),
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        return json.dumps(payload, sort_keys=True)


_LOGGING_CONFIGURED = False


def configure_logging(level: Optional[str] = None) -> None:
    """Install the JSON-lines handler on the ``repro`` logger.

    ``level`` defaults to ``REPRO_LOG_LEVEL``; no-op when neither is
    set.  Idempotent: repeated calls only adjust the level.
    """
    global _LOGGING_CONFIGURED
    level = level if level is not None else os.environ.get(LOG_LEVEL_ENV)
    if not level:
        return
    root = logging.getLogger("repro")
    root.setLevel(level.upper())
    if not _LOGGING_CONFIGURED:
        handler = logging.StreamHandler()
        handler.setFormatter(_JsonLineFormatter())
        root.addHandler(handler)
        _LOGGING_CONFIGURED = True


class Span:
    """One named duration; use as a context manager.

    ``set(key=value, ...)`` attaches attributes (Newton iterations,
    residuals, cache layer...) that end up in the exported ``args``.
    """

    __slots__ = ("tracer", "name", "span_id", "parent_id", "attrs",
                 "ts", "_start", "duration", "_token")

    def __init__(self, tracer: "Tracer", name: str, span_id: str,
                 parent_id: Optional[str], attrs: Dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.ts = 0.0          # epoch seconds at __enter__
        self._start = 0.0      # perf_counter at __enter__
        self.duration = 0.0

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.ts = time.time()
        self._start = time.perf_counter()
        self._token = _CURRENT_SPAN.set(self.span_id)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = time.perf_counter() - self._start
        _CURRENT_SPAN.reset(self._token)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.tracer._record_span(self)


class _NullSpan:
    """Shared do-nothing span for the disabled tracer."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _NullInstrument:
    """Absorbs counter/gauge/histogram calls when tracing is off."""

    __slots__ = ()
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def add(self, delta: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None


_NULL_INSTRUMENT = _NullInstrument()


class NullTracer:
    """The disabled tracer: every operation is a near-free no-op."""

    enabled = False
    out_dir: Optional[Path] = None

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        return None

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, edges=ITERATION_BUCKETS) -> _NullInstrument:
        return _NULL_INSTRUMENT


#: The process-wide disabled tracer (singleton — identity-comparable).
NULL_TRACER = NullTracer()

#: Current span id (contextvars: follows the logical call context).
_CURRENT_SPAN: ContextVar[Optional[str]] = ContextVar(
    "repro_observe_current_span", default=None)

#: Context-local active tracer override (set by ``activate``).
_ACTIVE_TRACER: ContextVar[Optional[Union["Tracer", NullTracer]]] = \
    ContextVar("repro_observe_active_tracer", default=None)


class Tracer:
    """Recording tracer: spans, instant events and metrics.

    Parameters
    ----------
    out_dir:
        When set, engine runs export ``trace.json`` (Chrome trace),
        ``events.jsonl`` and ``summary.txt`` here after each run.
    """

    enabled = True

    def __init__(self, out_dir: Optional[os.PathLike] = None):
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.metrics = MetricsRegistry()
        self.spans: List[Dict[str, Any]] = []
        self.events: List[Dict[str, Any]] = []
        self._pid = os.getpid()
        self._seq = 0

    # ------------------------------------------------------------------
    # spans and events
    # ------------------------------------------------------------------
    def _next_id(self) -> str:
        self._seq += 1
        return f"{self._pid}-{self._seq}"

    def span(self, name: str, **attrs: Any) -> Span:
        return Span(self, name, self._next_id(), _CURRENT_SPAN.get(), attrs)

    def _record_span(self, span: Span) -> None:
        self.spans.append({
            "kind": "span",
            "name": span.name,
            "id": span.span_id,
            "parent": span.parent_id,
            "ts": span.ts,
            "dur": span.duration,
            "pid": self._pid,
            "args": span.attrs,
        })
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("span %s dur=%.6fs %s",
                         span.name, span.duration, span.attrs)

    def event(self, name: str, **attrs: Any) -> None:
        self.events.append({
            "kind": "event",
            "name": name,
            "parent": _CURRENT_SPAN.get(),
            "ts": time.time(),
            "pid": self._pid,
            "args": attrs,
        })

    # ------------------------------------------------------------------
    # metrics passthrough
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        return self.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.metrics.gauge(name)

    def histogram(self, name: str,
                  edges=ITERATION_BUCKETS) -> Histogram:
        return self.metrics.histogram(name, edges)

    # ------------------------------------------------------------------
    # cross-process export / merge
    # ------------------------------------------------------------------
    def export_records(self) -> Dict[str, Any]:
        """Picklable bundle a worker ships back with its task result."""
        return {
            "spans": self.spans,
            "events": self.events,
            "metrics": self.metrics.snapshot(),
        }

    def merge_records(self, records: Dict[str, Any],
                      parent_id: Optional[str] = None) -> None:
        """Fold a worker's :meth:`export_records` into this tracer.

        ``parent_id`` re-roots the worker's top-level spans/events under
        a parent-side span (default: the caller's current span), so the
        merged trace nests correctly.
        """
        if parent_id is None:
            parent_id = _CURRENT_SPAN.get()
        worker_ids = {s["id"] for s in records.get("spans", [])}
        for span in records.get("spans", []):
            if span.get("parent") not in worker_ids:
                span = dict(span, parent=parent_id)
            self.spans.append(span)
        for event in records.get("events", []):
            if event.get("parent") not in worker_ids:
                event = dict(event, parent=parent_id)
            self.events.append(event)
        self.metrics.merge(records.get("metrics", {}))

    # ------------------------------------------------------------------
    # exports (implemented in repro.observe.export)
    # ------------------------------------------------------------------
    def write_chrome_trace(self, path: os.PathLike) -> Path:
        from repro.observe.export import write_chrome_trace
        return write_chrome_trace(self, path)

    def write_jsonl(self, path: os.PathLike) -> Path:
        from repro.observe.export import write_jsonl
        return write_jsonl(self, path)

    def summary(self) -> str:
        from repro.observe.export import summary_table
        return summary_table(self)

    def export_all(self, out_dir: Optional[os.PathLike] = None) -> List[Path]:
        """Write every export format into ``out_dir`` (or ``self.out_dir``)."""
        target = Path(out_dir) if out_dir is not None else self.out_dir
        if target is None:
            return []
        target.mkdir(parents=True, exist_ok=True)
        written = [
            self.write_chrome_trace(target / "trace.json"),
            self.write_jsonl(target / "events.jsonl"),
        ]
        summary_path = target / "summary.txt"
        summary_path.write_text(self.summary() + "\n", encoding="utf-8")
        written.append(summary_path)
        return written


# ----------------------------------------------------------------------
# global / contextual tracer resolution
# ----------------------------------------------------------------------
_GLOBAL_TRACER: Optional[Union[Tracer, NullTracer]] = None


def _tracer_from_env() -> Union[Tracer, NullTracer]:
    value = os.environ.get(TRACE_ENV, "")
    if value.lower() in _FALSE_VALUES:
        return NULL_TRACER
    configure_logging()
    if value.lower() in _TRUE_VALUES:
        return Tracer()
    return Tracer(out_dir=value)


def get_tracer() -> Union[Tracer, NullTracer]:
    """The active tracer: context-local override, else the env-resolved
    process global, else :data:`NULL_TRACER`."""
    active = _ACTIVE_TRACER.get()
    if active is not None:
        return active
    global _GLOBAL_TRACER
    if _GLOBAL_TRACER is None:
        _GLOBAL_TRACER = _tracer_from_env()
    return _GLOBAL_TRACER


def configure(enabled: bool = True,
              out_dir: Optional[os.PathLike] = None,
              ) -> Union[Tracer, NullTracer]:
    """Install (and return) the process-wide tracer explicitly."""
    global _GLOBAL_TRACER
    configure_logging()
    _GLOBAL_TRACER = Tracer(out_dir=out_dir) if enabled else NULL_TRACER
    return _GLOBAL_TRACER


def reset() -> None:
    """Drop the process-wide tracer (next use re-reads the env vars)."""
    global _GLOBAL_TRACER
    _GLOBAL_TRACER = None


class activate:
    """Context manager making ``tracer`` the active one in this context.

    Reentrant and contextvars-based, so parallel logical contexts (e.g.
    engine runs under different tracers) do not interfere.
    """

    def __init__(self, tracer: Union[Tracer, NullTracer]):
        self.tracer = tracer

    def __enter__(self) -> Union[Tracer, NullTracer]:
        self._token = _ACTIVE_TRACER.set(self.tracer)
        return self.tracer

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE_TRACER.reset(self._token)


class maybe_activate:
    """Activate ``resolve_tracer(observe)`` unless ``observe`` is None.

    The context manager the public entry points wrap their work in: an
    explicit ``observe=`` argument scopes a tracer to that call, while
    ``observe=None`` leaves whatever tracer is already active (the
    env-controlled default) untouched.
    """

    def __init__(self, observe: Any):
        self.observe = observe
        self._inner: Optional[activate] = None

    def __enter__(self) -> Union[Tracer, NullTracer]:
        if self.observe is None:
            return get_tracer()
        self._inner = activate(resolve_tracer(self.observe))
        return self._inner.__enter__()

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._inner is not None:
            self._inner.__exit__(exc_type, exc, tb)


def resolve_tracer(observe: Any) -> Union[Tracer, NullTracer]:
    """Normalise an ``observe=`` argument to a tracer.

    ``None`` -> the currently active tracer (env-controlled default);
    ``True``/``False`` -> a fresh recording tracer / the no-op singleton;
    a str/path -> a recording tracer exporting into that directory;
    a tracer instance passes through.
    """
    if observe is None:
        return get_tracer()
    if isinstance(observe, (Tracer, NullTracer)):
        return observe
    if isinstance(observe, bool):
        if not observe:
            return NULL_TRACER
        configure_logging()
        return Tracer()
    if isinstance(observe, (str, os.PathLike)):
        configure_logging()
        return Tracer(out_dir=observe)
    raise TypeError(f"observe= must be None, bool, path or Tracer, "
                    f"got {type(observe).__name__}")
