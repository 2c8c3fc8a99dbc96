"""Serial/parallel and cold/warm parity of the engine-run full flow.

The acceptance bar for the execution engine: fanning the pipeline out
over processes, or serving it from the artifact cache, must change wall
time only — every reported number stays bit-identical.

Runs a reduced flow (one cell, two variants, four devices) so the three
cold/warm runs stay test-suite friendly.
"""

import pytest

from repro.cells.variants import DeviceVariant
from repro.engine import Engine
from repro.engine.pipeline import STAGE_EXTRACTION, STAGE_TARGETS
from repro.flows.full_flow import run_full_flow
from repro.geometry.transistor_layout import ChannelCount
from repro.observe import Tracer

pytestmark = pytest.mark.engine

CELLS = ["INV1X1"]
VARIANTS = [DeviceVariant.TWO_D, DeviceVariant.MIV_1CH,
            DeviceVariant.MIV_2CH]
DEVICES = [ChannelCount.TRADITIONAL, ChannelCount.ONE, ChannelCount.TWO]


def _flow(engine, observe=None):
    return run_full_flow(cells=CELLS, variants=VARIANTS,
                         extraction_variants=DEVICES, engine=engine,
                         observe=observe)


@pytest.fixture(scope="module")
def serial_cold(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("serial")
    result = _flow(Engine(backend="serial", cache_dir=cache_dir))
    return result, cache_dir


@pytest.fixture(scope="module")
def parallel_cold(tmp_path_factory):
    return _flow(Engine(backend="pool:4",
                        cache_dir=tmp_path_factory.mktemp("parallel")))


def test_serial_and_parallel_results_bit_identical(serial_cold,
                                                   parallel_cold):
    serial, _ = serial_cold
    assert serial.headline() == parallel_cold.headline()
    for cell in CELLS:
        for variant in VARIANTS:
            for metric in ("delay", "power", "area"):
                assert serial.ppa.value(cell, variant, metric) == \
                    parallel_cold.ppa.value(cell, variant, metric)


def test_cold_runs_computed_everything(serial_cold, parallel_cold):
    serial, _ = serial_cold
    assert serial.manifest.hit_rate() == 0.0
    assert parallel_cold.manifest.hit_rate() == 0.0
    assert serial.manifest.workers_used() == ["main"]
    assert parallel_cold.manifest.max_workers == 4


def test_warm_disk_cache_skips_all_tcad_and_extraction(serial_cold):
    serial, cache_dir = serial_cold
    warm = _flow(Engine(backend="serial", cache_dir=cache_dir))
    assert warm.manifest.hit_rate(STAGE_TARGETS) == 1.0
    assert warm.manifest.hit_rate(STAGE_EXTRACTION) == 1.0
    assert warm.manifest.hit_rate() == 1.0
    assert warm.headline() == serial.headline()


def test_explicit_engine_width_shares_cache(serial_cold):
    # two engines over one cache directory must reuse each other's
    # artefacts regardless of the per-engine worker setting
    serial, cache_dir = serial_cold
    warm = _flow(Engine(backend="pool:4", cache_dir=cache_dir))
    assert warm.manifest.hit_rate() == 1.0
    assert warm.headline() == serial.headline()


@pytest.fixture(scope="module")
def traced_serial(tmp_path_factory):
    tracer = Tracer()
    result = _flow(Engine(backend="serial",
                          cache_dir=tmp_path_factory.mktemp("traced_s")),
                   observe=tracer)
    return result, tracer


@pytest.fixture(scope="module")
def traced_parallel(tmp_path_factory):
    tracer = Tracer()
    result = _flow(Engine(backend="pool:4",
                          cache_dir=tmp_path_factory.mktemp("traced_p")),
                   observe=tracer)
    return result, tracer


def test_tracing_does_not_change_results(serial_cold, traced_serial,
                                         traced_parallel):
    # observe= must be a pure observer: serial and parallel traced runs
    # reproduce the untraced numbers bit-identically
    serial, _ = serial_cold
    for traced, _tracer in (traced_serial, traced_parallel):
        assert traced.headline() == serial.headline()
        for cell in CELLS:
            for variant in VARIANTS:
                for metric in ("delay", "power", "area"):
                    assert traced.ppa.value(cell, variant, metric) == \
                        serial.ppa.value(cell, variant, metric)


def test_traced_flow_records_hot_path_metrics(traced_serial):
    # the cold traced flow must surface every instrumented hot path:
    # Newton solves, optimizer evaluations, MNA factorisations, engine
    # cache accounting — all of it visible in the summary table
    _, tracer = traced_serial
    snapshot = tracer.metrics.snapshot()
    assert snapshot["spice.newton.iterations"]["value"] > 0
    assert snapshot["spice.mna.solves"]["value"] > 0
    assert snapshot["extraction.optimizer.evaluations"]["value"] > 0
    # every Jacobian is one batch of 1 + k rows, counted as evaluations
    assert 0 < snapshot["extraction.optimizer.jacobians"]["value"] < \
        snapshot["extraction.optimizer.evaluations"]["value"]
    assert snapshot["tcad.poisson1d.iterations"]["value"] > 0
    assert snapshot["engine.computed"]["value"] == \
        snapshot["engine.tasks"]["value"]
    assert snapshot["engine.cache.hit_rate"]["value"] == 0.0
    summary = tracer.summary()
    for needle in ("engine.run", "spice.newton.iterations",
                   "extraction.optimizer.evaluations", "spice.mna.solves",
                   "engine.cache.hit_rate"):
        assert needle in summary


def test_traced_flow_chrome_trace_loads(traced_serial, tmp_path):
    import json
    _, tracer = traced_serial
    path = tracer.write_chrome_trace(tmp_path / "trace.json")
    data = json.loads(path.read_text())
    names = {e.get("name") for e in data["traceEvents"]}
    assert "engine.run" in names
    assert "spice.transient" in names
    assert "extraction.fit" in names


def test_parallel_traced_flow_merges_worker_spans(traced_parallel):
    import os
    _, tracer = traced_parallel
    pids = {s["pid"] for s in tracer.spans}
    assert len(pids) > 1, "expected spans shipped back from pool workers"
    # worker top-level spans were re-rooted under a parent-side span
    main_ids = {s["id"] for s in tracer.spans
                if s["pid"] == os.getpid()}
    worker_spans = [s for s in tracer.spans if s["pid"] != os.getpid()]
    worker_ids = {s["id"] for s in worker_spans}
    for span in worker_spans:
        assert span["parent"] in main_ids | worker_ids
    assert tracer.metrics.snapshot()["spice.newton.solves"]["value"] > 0
