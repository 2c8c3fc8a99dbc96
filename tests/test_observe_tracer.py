"""Unit tests for the span tracer, its exports and the observe= plumbing."""

import json
import os

import pytest

from repro.observe import (
    NULL_TRACER,
    TRACE_ENV,
    Tracer,
    activate,
    chrome_trace,
    configure,
    get_tracer,
    maybe_activate,
    reset,
    resolve_tracer,
    summary_table,
)


@pytest.fixture(autouse=True)
def clean_tracer_state(monkeypatch):
    """Isolate each test from the env and the process-global tracer."""
    monkeypatch.delenv(TRACE_ENV, raising=False)
    reset()
    yield
    reset()


# ----------------------------------------------------------------------
# span recording and nesting
# ----------------------------------------------------------------------
def test_spans_nest_via_contextvars():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
    by_name = {s["name"]: s for s in tracer.spans}
    # children record before parents (exit order), parents keep links
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["outer"]["dur"] >= by_name["inner"]["dur"] >= 0.0


def test_span_attributes_and_events():
    tracer = Tracer()
    with tracer.span("solve", device="NMOS") as span:
        span.set(iterations=7)
        tracer.event("checkpoint", step=3)
    record = tracer.spans[0]
    assert record["args"] == {"device": "NMOS", "iterations": 7}
    assert tracer.events[0]["name"] == "checkpoint"
    assert tracer.events[0]["parent"] == record["id"]


def test_span_records_exception_type():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("boom"):
            raise ValueError("no")
    assert tracer.spans[0]["args"]["error"] == "ValueError"


def test_span_ids_carry_pid():
    tracer = Tracer()
    with tracer.span("s"):
        pass
    assert tracer.spans[0]["id"].startswith(f"{os.getpid()}-")


# ----------------------------------------------------------------------
# disabled mode
# ----------------------------------------------------------------------
def test_disabled_tracer_is_noop_singleton():
    assert get_tracer() is NULL_TRACER
    assert not NULL_TRACER.enabled
    # shared singletons: no per-call allocation on the disabled path
    assert NULL_TRACER.span("a") is NULL_TRACER.span("b")
    assert NULL_TRACER.counter("a") is NULL_TRACER.histogram("b")
    with NULL_TRACER.span("a") as span:
        span.set(x=1)
    NULL_TRACER.counter("c").inc()
    NULL_TRACER.event("e")


# ----------------------------------------------------------------------
# resolution: env var, configure(), activate, observe=
# ----------------------------------------------------------------------
def test_env_var_enables_tracing(monkeypatch):
    monkeypatch.setenv(TRACE_ENV, "1")
    reset()
    assert isinstance(get_tracer(), Tracer)
    assert get_tracer() is get_tracer()


def test_env_var_value_is_export_dir(monkeypatch, tmp_path):
    monkeypatch.setenv(TRACE_ENV, str(tmp_path / "traces"))
    reset()
    tracer = get_tracer()
    assert isinstance(tracer, Tracer)
    assert tracer.out_dir == tmp_path / "traces"


def test_env_var_false_values_disable(monkeypatch):
    for value in ("0", "false", "off", "no"):
        monkeypatch.setenv(TRACE_ENV, value)
        reset()
        assert get_tracer() is NULL_TRACER


def test_configure_and_reset():
    tracer = configure(enabled=True)
    assert get_tracer() is tracer
    assert configure(enabled=False) is NULL_TRACER
    reset()
    assert get_tracer() is NULL_TRACER


def test_activate_scopes_to_context():
    tracer = Tracer()
    with activate(tracer):
        assert get_tracer() is tracer
        inner = Tracer()
        with activate(inner):
            assert get_tracer() is inner
        assert get_tracer() is tracer
    assert get_tracer() is NULL_TRACER


def test_maybe_activate_none_inherits():
    ambient = Tracer()
    with activate(ambient):
        with maybe_activate(None) as tracer:
            assert tracer is ambient
        with maybe_activate(True) as tracer:
            assert isinstance(tracer, Tracer) and tracer is not ambient
        with maybe_activate(False) as tracer:
            assert tracer is NULL_TRACER
        assert get_tracer() is ambient


def test_resolve_tracer_accepts_all_spellings(tmp_path):
    assert resolve_tracer(False) is NULL_TRACER
    assert isinstance(resolve_tracer(True), Tracer)
    path_tracer = resolve_tracer(tmp_path / "out")
    assert path_tracer.out_dir == tmp_path / "out"
    existing = Tracer()
    assert resolve_tracer(existing) is existing
    assert resolve_tracer(NULL_TRACER) is NULL_TRACER
    with pytest.raises(TypeError):
        resolve_tracer(42)


# ----------------------------------------------------------------------
# cross-process merge
# ----------------------------------------------------------------------
def test_merge_records_reroots_worker_spans():
    parent = Tracer()
    worker = Tracer()
    worker._pid = os.getpid() + 1  # simulate a different process
    with worker.span("task"):
        with worker.span("step"):
            pass
    worker.counter("work").inc(3)

    with parent.span("engine.run") as run_span:
        parent.merge_records(worker.export_records())

    by_name = {s["name"]: s for s in parent.spans}
    assert by_name["task"]["parent"] == run_span.span_id
    assert by_name["step"]["parent"] == by_name["task"]["id"]
    assert parent.metrics.counter("work").value == 3


def test_merge_records_explicit_parent():
    parent = Tracer()
    worker = Tracer()
    with worker.span("task"):
        pass
    parent.merge_records(worker.export_records(), parent_id="root-1")
    assert parent.spans[0]["parent"] == "root-1"


# ----------------------------------------------------------------------
# exports
# ----------------------------------------------------------------------
def _traced_tracer():
    tracer = Tracer()
    with tracer.span("outer", kind="demo"):
        with tracer.span("inner"):
            pass
        tracer.event("tick", n=1)
    tracer.counter("solves").inc(4)
    tracer.gauge("rate").set(0.5)
    tracer.histogram("iters", (1, 5, 10)).observe(3)
    return tracer


def test_chrome_trace_is_valid_and_complete(tmp_path):
    tracer = _traced_tracer()
    data = json.loads(json.dumps(chrome_trace(tracer)))
    events = data["traceEvents"]
    phases = {e["ph"] for e in events}
    assert {"X", "i", "M"} <= phases
    complete = [e for e in events if e["ph"] == "X"]
    assert {e["name"] for e in complete} == {"outer", "inner"}
    for event in complete:
        assert event["dur"] >= 0
        assert isinstance(event["ts"], (int, float))
    path = tracer.write_chrome_trace(tmp_path / "trace.json")
    assert json.loads(path.read_text())["traceEvents"]


def test_jsonl_export_is_one_object_per_line(tmp_path):
    tracer = _traced_tracer()
    path = tracer.write_jsonl(tmp_path / "events.jsonl")
    lines = path.read_text().strip().splitlines()
    records = [json.loads(line) for line in lines]
    kinds = {r["kind"] for r in records}
    assert {"span", "event", "metric"} <= kinds


def test_summary_table_lists_spans_and_metrics():
    summary = summary_table(_traced_tracer())
    for needle in ("outer", "inner", "solves", "rate", "iters"):
        assert needle in summary


def test_export_all_writes_three_files(tmp_path):
    tracer = _traced_tracer()
    tracer.out_dir = tmp_path / "exports"
    written = tracer.export_all()
    assert sorted(p.name for p in written) == \
        ["events.jsonl", "summary.txt", "trace.json"]
    for path in written:
        assert path.exists() and path.stat().st_size > 0


def test_instrumented_hot_path_records_under_active_tracer():
    # one cheap real solve: the 1-D Poisson instrumentation must appear
    from repro.tcad.poisson1d import Poisson1D, StackSpec

    solver = Poisson1D(StackSpec(t_ox=1e-9, t_si=7e-9, t_box=100e-9))
    tracer = Tracer()
    with activate(tracer):
        solver.solve(v_gate=0.5)
    snapshot = tracer.metrics.snapshot()
    assert snapshot["tcad.poisson1d.solves"]["value"] == 1
    assert snapshot["tcad.poisson1d.iterations"]["value"] >= 1
    assert snapshot["tcad.poisson1d.iterations_per_solve"]["count"] == 1
    # and with no tracer active, the same solve records nothing
    solver.solve(v_gate=0.5)
    assert snapshot == tracer.metrics.snapshot()
