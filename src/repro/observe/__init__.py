"""Observability: span tracing, metrics and exports for the pipeline.

The layer every hot path reports through:

* **spans** — nested named durations (``tracer.span("engine.run")``),
  propagated via :mod:`contextvars` so nesting follows the call stack
  and survives the engine's process-pool fan-out (workers export their
  spans with each task result; the engine re-roots them in the merged
  trace);
* **metrics** — counters, gauges and fixed-bucket histograms
  (deterministic: bucket edges never depend on the data), merged across
  workers by addition;
* **exports** — a Chrome-trace JSON (``chrome://tracing`` / Perfetto),
  a JSON-lines event log and a plain-text summary table.

Control surface:

* ``REPRO_TRACE`` env var — ``1`` enables tracing; any other non-empty
  value is the export directory engine runs write trace files into;
* ``REPRO_LOG_LEVEL`` env var — level of the ``repro`` logger (JSON-line
  records on stderr);
* ``Engine(observe=...)`` — the tracer of that engine's runs, and so
  of every entry point (``quick_ppa``, ``run_full_flow``, ...) given
  the engine: ``None`` inherits the active tracer, ``True``/``False``
  force tracing on/off, a path traces *and* exports there, a
  :class:`Tracer` instance is used as-is;
* :func:`activate` — makes a tracer the active one for a block of
  code, e.g. ``python -m repro.verify --trace`` around its suite.

With tracing off (the default), every instrumentation site reduces to a
ContextVar read on the :data:`NULL_TRACER` singleton — no allocation,
no recording, no measurable overhead.
"""

from repro.observe.export import (
    chrome_trace,
    summary_table,
    write_chrome_trace,
    write_jsonl,
)
from repro.observe.metrics import (
    EVALUATION_BUCKETS,
    ITERATION_BUCKETS,
    REQUEST_BUCKETS,
    TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observe.tracer import (
    LOG_LEVEL_ENV,
    NULL_TRACER,
    TRACE_ENV,
    NullTracer,
    Span,
    Tracer,
    activate,
    configure,
    configure_logging,
    get_tracer,
    reset,
    resolve_tracer,
)

__all__ = [
    "Counter",
    "EVALUATION_BUCKETS",
    "Gauge",
    "Histogram",
    "ITERATION_BUCKETS",
    "LOG_LEVEL_ENV",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "REQUEST_BUCKETS",
    "Span",
    "TIME_BUCKETS",
    "TRACE_ENV",
    "Tracer",
    "activate",
    "chrome_trace",
    "configure",
    "configure_logging",
    "get_tracer",
    "reset",
    "resolve_tracer",
    "summary_table",
    "write_chrome_trace",
    "write_jsonl",
]
