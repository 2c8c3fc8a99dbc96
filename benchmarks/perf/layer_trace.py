"""Outside-in layer tracing for the perf benchmark.

The program is not instrumented for this: the benchmark wraps the
public entry points of each ``repro`` layer — class methods, and the
module attributes that call sites bound with ``from x import f`` — and
times every call into them.  Wrappers are installed for the timed phase
of a ``--trace 1`` run only and removed afterwards; ``close()`` puts
back the exact objects that were replaced.

Accounting is online: each thread keeps a stack of open frames, and a
frame's *self time* (its duration minus the time its child frames
cover) is added to its span name when it closes.  Coarse entry points
also keep a span record (name, start, end, parent, op id) in memory for
``trace.jsonl`` and the Chrome trace; high-frequency leaf calls (device
evaluation, compact-model calls, Poisson solves) are only accumulated.
Nothing is recorded outside an operation: a frame opens only under an
``op`` frame (the benchmark's unit of work).

This module imports the program lazily, inside :func:`install`, so the
orchestrator can use the metric catalogue and :func:`layer_metrics`
without loading it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from benchlib import WORKLOADS, pass_cost, pass_ms

#: Layers, named after the ``repro`` packages they wrap.
LAYERS = ("tcad", "compact", "extraction", "spice", "ppa", "engine",
          "cache")

#: Per-thread cap on kept span records (accounting continues past it).
MAX_SPANS = 200_000

#: How a wrapper records: a span record, accumulation only, or a count.
SPAN, AGGREGATE, COUNT = "span", "aggregate", "count"

#: (layer, span name, "module:attribute path", mode).  Several targets
#: may share a span name; nested calls under one name count once.
ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("tcad", "tcad.characterize",
     "repro.extraction.targets:characterize_device", SPAN),
    ("tcad", "tcad.poisson1d", "repro.tcad.poisson1d:Poisson1D.solve",
     AGGREGATE),
    ("compact", "compact.ids", "repro.compact.model:BsimSoi4Lite.ids",
     AGGREGATE),
    ("compact", "compact.ids",
     "repro.compact.model:BsimSoi4Lite.ids_batch", AGGREGATE),
    ("compact", "compact.ids",
     "repro.compact.model:BsimSoi4Lite.ids_magnitude", AGGREGATE),
    ("compact", "compact.charges",
     "repro.compact.model:BsimSoi4Lite.charges", AGGREGATE),
    ("compact", "compact.charges",
     "repro.compact.model:BsimSoi4Lite.charges_batch", AGGREGATE),
    ("compact", "compact.cgg", "repro.compact.model:BsimSoi4Lite.cgg",
     AGGREGATE),
    ("extraction", "extraction.flow",
     "repro.extraction.flow:ExtractionFlow.run", SPAN),
    ("extraction", "extraction.least_squares",
     "repro.extraction.optimizer:least_squares", SPAN),
    ("spice", "spice.transient", "repro.ppa.runner:transient", SPAN),
    ("spice", "spice.device_eval",
     "repro.spice.mna:MnaAssembler.assemble_static", AGGREGATE),
    ("spice", "spice.device_eval",
     "repro.spice.mna:MnaAssembler.assemble_dynamic", AGGREGATE),
    ("spice", "spice.linear_solve",
     "repro.spice.mna:MnaAssembler.solve_system", AGGREGATE),
    ("spice", "spice.mosfet_stamps",
     "repro.spice.elements.mosfet:Mosfet.stamp_static", COUNT),
    ("spice", "spice.mosfet_stamps",
     "repro.spice.elements.mosfet:Mosfet.stamp_dynamic", COUNT),
    ("ppa", "ppa.simulate_cell", "repro.ppa.runner:simulate_cell", SPAN),
    ("ppa", "ppa.measure", "repro.ppa.delay:measure_cell_delay", SPAN),
    ("ppa", "ppa.measure", "repro.ppa.power:measure_cell_power", SPAN),
    ("engine", "engine.run", "repro.engine.executor:Engine.run", SPAN),
    ("engine", "engine.task_keys",
     "repro.engine.executor:Engine.task_keys", SPAN),
    ("cache", "cache.get", "repro.engine.cache:ArtifactCache.get", SPAN),
    ("cache", "cache.put", "repro.engine.cache:ArtifactCache.put", SPAN),
    ("cache", "cache.remote.fetch",
     "repro.engine.remote:RemoteCache.fetch", SPAN),
    ("cache", "cache.remote.store",
     "repro.engine.remote:RemoteCache.store", SPAN),
)

#: Engine stages whose compute functions are wrapped (via
#: ``register_stage(..., replace=True)``) and the layer their glue code
#: belongs to.
STAGE_LAYERS = {"tcad_targets": "tcad", "extraction": "extraction",
                "model_set": "engine", "cell_ppa": "ppa"}

#: The benchmark's own unit-of-work frame.
OP_SPAN = "op"

SPAN_LAYERS: Dict[str, str] = {name: layer
                               for layer, name, _, _ in ENTRY_POINTS}
SPAN_LAYERS.update({f"stage.{stage}": layer
                    for stage, layer in STAGE_LAYERS.items()})

#: Program observe counters read in traced runs.
OBSERVE_COUNTERS = ("tcad.poisson1d.iterations", "spice.newton.solves",
                    "spice.newton.iterations")


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------
class _ThreadState:
    __slots__ = ("ident", "stack", "acc", "counts", "spans", "dropped",
                 "op")

    def __init__(self, ident: int):
        self.ident = ident
        self.stack: List[list] = []
        #: span name -> [entries, inclusive seconds, self seconds]
        self.acc: Dict[str, List[float]] = {}
        self.counts: Counter = Counter()
        self.spans: List[tuple] = []
        self.dropped = 0
        self.op: Optional[str] = None


class Recorder:
    """In-memory spans and per-name self-time accounting, per thread."""

    def __init__(self, max_spans: int = MAX_SPANS):
        self.max_spans = max_spans
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._wall0 = time.time()
        self._perf0 = time.perf_counter()

    def state(self) -> _ThreadState:
        """This thread's accounting state (created on first use)."""
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            with self._lock:
                self._threads.append(st)
            self._local.st = st
        return st

    def enter(self, st: _ThreadState, name: str, record: bool) -> list:
        stack = st.stack
        parent = stack[-1] if stack else None
        span_id = next(self._ids) if record else 0
        parent_id = (parent[2] or parent[3]) if parent is not None else 0
        frame = [name, 0.0, span_id, parent_id, parent,
                 time.perf_counter()]
        stack.append(frame)
        return frame

    def leave(self, st: _ThreadState, frame: list) -> None:
        end = time.perf_counter()
        st.stack.pop()
        name, child, span_id, parent_id, parent, start = frame
        duration = end - start
        acc = st.acc.get(name)
        if acc is None:
            acc = st.acc[name] = [0, 0.0, 0.0]
        acc[2] += duration - child
        if parent is None or parent[0] != name:
            acc[0] += 1
            acc[1] += duration
        if parent is not None:
            parent[1] += duration
        if span_id:
            if len(st.spans) < self.max_spans:
                st.spans.append((span_id, parent_id, name, start, end,
                                 st.op))
            else:
                st.dropped += 1

    def op(self, op_id: str) -> "_OpFrame":
        """Context manager framing one benchmark operation."""
        return _OpFrame(self, op_id)

    def summary(self) -> Dict[str, Any]:
        """Merged accounting of every thread (JSON-ready)."""
        acc: Dict[str, List[float]] = {}
        counts: Counter = Counter()
        dropped = 0
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for name, (entries, inclusive, self_s) in st.acc.items():
                into = acc.setdefault(name, [0, 0.0, 0.0])
                into[0] += entries
                into[1] += inclusive
                into[2] += self_s
            counts.update(st.counts)
            dropped += st.dropped
        return {"acc": acc, "counts": dict(counts),
                "spans_dropped": dropped}

    def span_records(self, pid: int) -> List[Dict[str, Any]]:
        """Kept span records with wall-clock timestamps."""
        out = []
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for span_id, parent_id, name, start, end, op in st.spans:
                out.append({
                    "name": name, "layer": SPAN_LAYERS.get(name, "outside"),
                    "id": f"{pid}-{span_id}",
                    "parent": f"{pid}-{parent_id}" if parent_id else None,
                    "start": self._wall0 + (start - self._perf0),
                    "end": self._wall0 + (end - self._perf0),
                    "op": op, "pid": pid, "tid": st.ident,
                })
        out.sort(key=lambda span: span["start"])
        return out


class _OpFrame:
    def __init__(self, recorder: Recorder, op_id: str):
        self.recorder = recorder
        self.op_id = op_id

    def __enter__(self) -> "_OpFrame":
        self.st = self.recorder.state()
        self.st.op = self.op_id
        self.frame = self.recorder.enter(self.st, OP_SPAN, True)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.recorder.leave(self.st, self.frame)
        self.st.op = None


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _timed(recorder: Recorder, name: str, record: bool, fn: Callable,
           original: Callable) -> Callable:
    """Frame ``fn`` under ``name``; outside an operation call ``original``."""
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        st = recorder.state()
        if not st.stack:
            return original(*args, **kwargs)
        frame = recorder.enter(st, name, record)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.leave(st, frame)
    return wrapper


def _counted(recorder: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        st = recorder.state()
        if st.stack:
            st.counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _least_squares_hook(recorder: Recorder, fn: Callable) -> Callable:
    """Count residual evaluations and the solver's own nfev / njev."""
    @functools.wraps(fn)
    def call(fun, *args, **kwargs):
        counts = recorder.state().counts

        def residuals(*a, **k):
            counts["extraction.residual_evals"] += 1
            return fun(*a, **k)

        result = fn(residuals, *args, **kwargs)
        counts["extraction.nfev"] += int(result.nfev)
        counts["extraction.jacobian_evals"] += int(result.njev or 0)
        return result
    return call


def _cache_get_hook(recorder: Recorder, fn: Callable) -> Callable:
    """Count which tier answered each probe."""
    @functools.wraps(fn)
    def get(self, key, stage):
        artifact, layer = fn(self, key, stage)
        recorder.state().counts[f"cache.hits.{layer}" if layer
                                else "cache.misses"] += 1
        return artifact, layer
    return get


def _remote_fetch_hook(recorder: Recorder, fn: Callable) -> Callable:
    """Count verified bytes fetched from the remote tier."""
    @functools.wraps(fn)
    def fetch(self, *args, **kwargs):
        before = self.bytes_fetched
        record = fn(self, *args, **kwargs)
        recorder.state().counts["cache.remote.bytes_fetched"] += (
            self.bytes_fetched - before)
        return record
    return fetch


HOOKS = {
    "repro.extraction.optimizer:least_squares": _least_squares_hook,
    "repro.engine.cache:ArtifactCache.get": _cache_get_hook,
    "repro.engine.remote:RemoteCache.fetch": _remote_fetch_hook,
}


def resolve(target: str) -> Tuple[Any, str]:
    """``(owner, attribute)`` of a ``"module:Class.attr"`` target.

    The attribute must be defined on the owner itself, so that setting
    it replaces exactly what callers look up.
    """
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise LookupError(f"{target}: {attr!r} is not defined on "
                          f"{getattr(owner, '__name__', owner)!r}")
    return owner, attr


class LayerTrace:
    """Installed wrappers; :meth:`close` restores every original."""

    def __init__(self):
        self._restore: List[Callable[[], None]] = []

    def defer(self, undo: Callable[[], None]) -> None:
        """Run ``undo`` on :meth:`close` (last deferred runs first)."""
        self._restore.append(undo)

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, replacement)
        self.defer(lambda: setattr(owner, attr, original))

    def close(self) -> None:
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "LayerTrace":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def install(recorder: Recorder) -> LayerTrace:
    """Wrap every entry point and stage compute; returns the handle."""
    from repro.engine import pipeline  # noqa: F401 - registers stages
    from repro.engine.stages import get_stage, register_stage

    trace = LayerTrace()
    try:
        for _, name, target, mode in ENTRY_POINTS:
            owner, attr = resolve(target)
            original = vars(owner)[attr]
            if mode == COUNT:
                trace.patch(owner, attr,
                            _counted(recorder, name, original))
                continue
            hooked = HOOKS[target](recorder, original) \
                if target in HOOKS else original
            trace.patch(owner, attr, _timed(recorder, name, mode == SPAN,
                                            hooked, original))
        for stage_name in STAGE_LAYERS:
            stage = get_stage(stage_name)
            register_stage(
                stage.name, stage.version,
                _timed(recorder, f"stage.{stage_name}", True,
                       stage.compute, stage.compute),
                stage.encode, stage.decode, replace=True)
            trace.defer(lambda s=stage: register_stage(
                s.name, s.version, s.compute, s.encode, s.decode,
                replace=True))
    except BaseException:
        trace.close()
        raise
    return trace


def observe_counters(tracer) -> Dict[str, float]:
    """The program's own observe counters this benchmark reports."""
    snapshot = tracer.metrics.snapshot()
    return {name: float(snapshot.get(name, {}).get("value", 0.0))
            for name in OBSERVE_COUNTERS}


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: name -> (unit, better, end-to-end metric it should move, workloads).
#: ``BENCHMARK.json`` lists exactly these as its per-layer metrics.
#: Counts are per pass, so they repeat exactly from run to run.
ALL = WORKLOADS
_COLD = ("inv-cold",)
_CELLS = ("inv-cold", "lib-ppa")
_REPLAY = ("replay",)
CATALOGUE: Dict[str, Tuple[str, str, str, Sequence[str]]] = {
    "tcad.self_pct": ("%", "lower", "pass_cost", _COLD),
    "tcad.poisson1d.self_pct": ("%", "lower", "pass_cost", _COLD),
    "tcad.characterize.calls_per_pass": ("count/pass", "lower", "pass_cost",
                                         _COLD),
    "tcad.poisson1d.calls_per_pass": ("count/pass", "lower", "pass_cost",
                                      _COLD),
    "tcad.poisson1d.newton_iters_per_pass": ("count/pass", "lower",
                                             "pass_cost", _COLD),
    "compact.self_pct": ("%", "lower", "pass_cost", _CELLS),
    "compact.ids.calls_per_pass": ("count/pass", "lower", "pass_cost",
                                   _CELLS),
    "compact.charges.calls_per_pass": ("count/pass", "lower", "pass_cost",
                                       _CELLS),
    "extraction.self_pct": ("%", "lower", "pass_cost", _COLD),
    "extraction.least_squares.calls_per_pass": ("count/pass", "lower",
                                                "pass_cost", _COLD),
    "extraction.residual_evals_per_pass": ("count/pass", "lower",
                                           "pass_cost", _COLD),
    "extraction.jacobian_evals_per_pass": ("count/pass", "lower",
                                           "pass_cost", _COLD),
    "extraction.fd_eval_share": ("ratio", "lower", "pass_cost", _COLD),
    "spice.self_pct": ("%", "lower", "pass_cost", _CELLS),
    "spice.device_eval.self_pct": ("%", "lower", "pass_cost", _CELLS),
    "spice.linear_solve.self_pct": ("%", "lower", "pass_cost", _CELLS),
    "spice.transient.calls_per_pass": ("count/pass", "lower", "pass_cost",
                                       _CELLS),
    "spice.device_eval.calls_per_pass": ("count/pass", "lower", "pass_cost",
                                         _CELLS),
    "spice.linear_solve.calls_per_pass": ("count/pass", "lower",
                                          "pass_cost", _CELLS),
    "spice.mosfet_stamps_per_pass": ("count/pass", "lower", "pass_cost",
                                     _CELLS),
    "spice.newton.solves_per_pass": ("count/pass", "lower", "pass_cost",
                                     _CELLS),
    "spice.newton.iters_per_pass": ("count/pass", "lower", "pass_cost",
                                    _CELLS),
    "ppa.self_pct": ("%", "lower", "pass_cost", _CELLS),
    "ppa.simulate_cell.calls_per_pass": ("count/pass", "lower", "pass_cost",
                                         _CELLS),
    "engine.self_pct": ("%", "lower", "pass_cost", _REPLAY),
    "engine.task_keys.self_pct": ("%", "lower", "pass_cost", _REPLAY),
    "engine.tasks_per_pass": ("count/pass", "lower", "pass_cost", ALL),
    "engine.computed_per_pass": ("count/pass", "lower", "pass_cost", ALL),
    "cache.self_pct": ("%", "lower", "pass_cost", _REPLAY),
    "cache.remote.self_pct": ("%", "lower", "pass_cost", _REPLAY),
    "cache.probes_per_task": ("count/task", "lower", "pass_cost", ALL),
    "cache.hit_ratio": ("ratio", "higher", "pass_cost", ALL),
    "cache.hits.disk_per_pass": ("count/pass", "higher", "pass_cost",
                                 _REPLAY),
    "cache.hits.remote_per_pass": ("count/pass", "higher", "pass_cost",
                                   _REPLAY),
    "cache.puts_per_pass": ("count/pass", "lower", "pass_cost", ALL),
    "cache.remote.kb_fetched_per_pass": ("kB/pass", "lower", "pass_cost",
                                         _REPLAY),
    "outside.self_pct": ("%", "lower", "pass_cost", ALL),
    "trace.passes": ("count", "higher", "pass_cost", ALL),
    "trace.pass_ms": ("ms", "lower", "pass_cost", ALL),
    "trace.pass_cost": ("calib", "lower", "pass_cost", ALL),
}


def _merge(summaries: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    acc: Dict[str, List[float]] = {}
    counts: Counter = Counter()
    for summary in summaries:
        for name, values in summary.get("acc", {}).items():
            into = acc.setdefault(name, [0, 0.0, 0.0])
            for i, value in enumerate(values):
                into[i] += value
        counts.update(summary.get("counts", {}))
    return {"acc": acc, "counts": counts}


def layer_metrics(summaries: Sequence[Dict[str, Any]],
                  ops: Sequence[Sequence], passes: int,
                  observe: Dict[str, float],
                  manifest: Dict[str, float]) -> Dict[str, float]:
    """Every :data:`CATALOGUE` metric from traced accounting.

    ``summaries`` are :meth:`Recorder.summary` dumps of every traced
    process, ``ops`` the ``[kind, seconds, calibration]`` of each traced
    operation of ``passes`` whole passes, ``manifest`` the engine manifest totals
    (tasks, computed, hits) over those operations.  Shares are of the
    summed operation latency.
    """
    merged = _merge(summaries)
    acc, counts = merged["acc"], merged["counts"]
    total = sum(seconds for _, seconds, _ in ops)

    def calls(name: str) -> float:
        return acc.get(name, [0, 0.0, 0.0])[0]

    def self_s(*names: str) -> float:
        return sum(acc.get(name, [0, 0.0, 0.0])[2] for name in names)

    def pct(seconds: float) -> float:
        return 100.0 * seconds / total if total else 0.0

    def per_pass(value: float) -> float:
        return value / passes if passes else 0.0

    by_layer: Dict[str, float] = defaultdict(float)
    for name, (_, _, seconds) in acc.items():
        if name != OP_SPAN:
            by_layer[SPAN_LAYERS[name]] += seconds
    evals = counts.get("extraction.residual_evals", 0)
    probes = calls("cache.get")
    hits = sum(counts.get(f"cache.hits.{tier}", 0)
               for tier in ("memory", "disk", "remote"))
    tasks = manifest.get("tasks", 0)

    out = {f"{layer}.self_pct": pct(by_layer[layer]) for layer in LAYERS}
    out.update({
        "tcad.poisson1d.self_pct": pct(self_s("tcad.poisson1d")),
        "tcad.characterize.calls_per_pass": per_pass(
            calls("tcad.characterize")),
        "tcad.poisson1d.calls_per_pass": per_pass(calls("tcad.poisson1d")),
        "tcad.poisson1d.newton_iters_per_pass": per_pass(
            observe.get("tcad.poisson1d.iterations", 0)),
        "compact.ids.calls_per_pass": per_pass(calls("compact.ids")),
        "compact.charges.calls_per_pass": per_pass(
            calls("compact.charges")),
        "extraction.least_squares.calls_per_pass": per_pass(
            calls("extraction.least_squares")),
        "extraction.residual_evals_per_pass": per_pass(evals),
        "extraction.jacobian_evals_per_pass": per_pass(
            counts.get("extraction.jacobian_evals", 0)),
        "extraction.fd_eval_share": (
            (evals - counts.get("extraction.nfev", 0)) / evals
            if evals else 0.0),
        "spice.device_eval.self_pct": pct(self_s("spice.device_eval")),
        "spice.linear_solve.self_pct": pct(self_s("spice.linear_solve")),
        "spice.transient.calls_per_pass": per_pass(
            calls("spice.transient")),
        "spice.device_eval.calls_per_pass": per_pass(
            calls("spice.device_eval")),
        "spice.linear_solve.calls_per_pass": per_pass(
            calls("spice.linear_solve")),
        "spice.mosfet_stamps_per_pass": per_pass(
            counts.get("spice.mosfet_stamps", 0)),
        "spice.newton.solves_per_pass": per_pass(
            observe.get("spice.newton.solves", 0)),
        "spice.newton.iters_per_pass": per_pass(
            observe.get("spice.newton.iterations", 0)),
        "ppa.simulate_cell.calls_per_pass": per_pass(
            calls("ppa.simulate_cell")),
        "engine.task_keys.self_pct": pct(self_s("engine.task_keys")),
        "engine.tasks_per_pass": per_pass(tasks),
        "engine.computed_per_pass": per_pass(manifest.get("computed", 0)),
        "cache.remote.self_pct": pct(self_s("cache.remote.fetch",
                                            "cache.remote.store")),
        "cache.probes_per_task": probes / tasks if tasks else 0.0,
        "cache.hit_ratio": hits / probes if probes else 0.0,
        "cache.hits.disk_per_pass": per_pass(
            counts.get("cache.hits.disk", 0)),
        "cache.hits.remote_per_pass": per_pass(
            counts.get("cache.hits.remote", 0)),
        "cache.puts_per_pass": per_pass(calls("cache.put")),
        "cache.remote.kb_fetched_per_pass": per_pass(
            counts.get("cache.remote.bytes_fetched", 0) / 1000.0),
        "outside.self_pct": pct(total - sum(by_layer.values())),
        "trace.passes": float(passes),
        "trace.pass_ms": pass_ms(ops) if ops else 0.0,
        "trace.pass_cost": pass_cost(ops) if ops else 0.0,
    })
    return out


#: Per workload: span names that must fire in its traced timed phase,
#: and layers that must stay idle there.
EXPECTED = {
    "inv-cold": ({"tcad.characterize", "tcad.poisson1d", "compact.ids",
                  "compact.charges", "compact.cgg", "extraction.flow",
                  "extraction.least_squares", "spice.transient",
                  "spice.device_eval", "spice.linear_solve",
                  "ppa.simulate_cell", "ppa.measure", "engine.run",
                  "engine.task_keys", "cache.get", "cache.put",
                  "stage.tcad_targets", "stage.extraction",
                  "stage.model_set", "stage.cell_ppa"},
                 set()),
    "lib-ppa": ({"compact.ids", "compact.charges", "spice.transient",
                 "spice.device_eval", "spice.linear_solve",
                 "ppa.simulate_cell", "ppa.measure", "engine.run",
                 "engine.task_keys", "cache.get", "cache.put",
                 "stage.cell_ppa"},
                {"tcad", "extraction"}),
    "replay": ({"engine.run", "engine.task_keys", "cache.get",
                "cache.remote.fetch"},
               {"tcad", "compact", "extraction", "spice", "ppa"}),
}


def wiring_failures(workload: str,
                    summaries: Sequence[Dict[str, Any]]) -> List[str]:
    """Wrappers that did not fire, and layers that ran but should not."""
    acc = _merge(summaries)["acc"]
    fired = {name for name, values in acc.items() if values[0] > 0}
    required, idle = EXPECTED[workload]
    problems = [f"wrapper {name} never fired"
                for name in sorted(required - fired)]
    problems += [f"layer {SPAN_LAYERS[name]} ran ({name})"
                 for name in sorted(fired)
                 if name != OP_SPAN and SPAN_LAYERS[name] in idle]
    return problems
