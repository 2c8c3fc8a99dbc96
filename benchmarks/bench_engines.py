"""Engine micro-benchmarks (not a paper artefact).

Times the three computational kernels every experiment rests on (one
vertical Poisson solve, one vectorised compact-model evaluation, and one
inverter transient), plus the execution-engine macro benchmark that
writes ``BENCH_engine.json``: per-mode wall times (serial, cold and
warm-worker pool, two serial invocations sharing one cache, warm cache)
of the end-to-end flow with ``parallel_efficiency`` per row, the perf
trajectory later changes compare against.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.compact.model import BsimSoi4Lite
from repro.compact.parameters import default_parameters
from repro.spice import Capacitor, Circuit, Mosfet, dc_source, pulse_source, transient
from repro.tcad.poisson1d import Poisson1D, StackSpec


def test_poisson_solve(benchmark):
    solver = Poisson1D(StackSpec(t_ox=1e-9, t_si=7e-9, t_box=100e-9))
    solution = benchmark(solver.solve, 0.8)
    assert solution.q_inv > 0


def test_compact_batch_eval(benchmark):
    model = BsimSoi4Lite(params=default_parameters())
    vgs = np.linspace(0.0, 1.0, 1000)
    vds = np.full_like(vgs, 1.0)
    ids = benchmark(model.ids_batch, vgs, vds)
    assert np.all(np.isfinite(ids))


def test_inverter_transient(benchmark):
    from repro.cells.variants import extracted_model_set, DeviceVariant
    models = extracted_model_set(DeviceVariant.TWO_D)

    def build_and_run():
        c = Circuit("inv")
        c.add(dc_source("VDD", "vdd", "0", 1.0))
        c.add(pulse_source("VIN", "in", "0", v1=0.0, v2=1.0, delay=2e-10,
                           rise=1e-11, fall=1e-11, width=1e-9,
                           period=2.4e-9))
        c.add(Mosfet("MP", "out", "in", "vdd", models.pmos))
        c.add(Mosfet("MN", "out", "in", "0", models.nmos))
        c.add(Capacitor("CL", "out", "0", 1e-15))
        return transient(c, t_stop=2.3e-9, dt=2e-11)

    result = benchmark.pedantic(build_and_run, rounds=1, iterations=1)
    assert result.waveform("out").maximum() > 0.95


@pytest.mark.engine
@pytest.mark.slow
def test_engine_flow_wall_times(tmp_path):
    """Per-backend wall times of the pipeline -> BENCH_engine.json.

    One row per execution mode over the one-cell INV1X1 flow (full
    extraction chain plus the cell grid), each on an isolated cache
    directory so the numbers measure the engine, not the state of the
    user-level store:

    ``serial-cold``
        the baseline everything else normalises against;
    ``pool-cold``
        a fresh :class:`PoolBackend` (2 workers) — includes worker
        spawn cost;
    ``pool-warm-workers``
        the *same* pool instance on a fresh cache — persistent workers
        already up, so this isolates dispatch + pickled transfer from
        process start-up (the number the ROADMAP efficiency target
        tracks);
    ``shared-cache-2proc``
        two real ``python -m repro.flows run --backend serial`` invocations
        started together on one cache, splitting the graph through
        the scheduler's single-flight claims;
    ``warm-cache``
        the serial replay (all cache hits).

    ``parallel_efficiency`` of a row is its speedup over serial-cold
    divided by the parallelism the host can actually deliver,
    ``min(workers, cpu_count)`` — on a box with fewer cores than
    workers the theoretical speedup ceiling is ``cpu_count``, not
    ``workers``, and normalising by the impossible figure would make
    the metric read as a regression on small CI runners.  ``cpu_count``
    is recorded alongside so numbers from different machines stay
    comparable.  ``transfer_bytes`` counts pickled payload bytes that
    crossed a process boundary.
    """
    import os
    from repro.engine import Engine, PoolBackend
    from repro.engine.durability import load_run
    from repro.flows.full_flow import run_full_flow
    from repro.resilience import chaos

    cells = ["INV1X1"]
    rows = {}

    def timed(name, fn, workers):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        rows[name] = {"wall_s": elapsed, "workers": workers,
                      "result": result}
        return result

    serial_cold = timed(
        "serial-cold",
        lambda: run_full_flow(cells=cells, engine=Engine(
            backend="serial", cache_dir=tmp_path / "serial")),
        workers=1)

    pool = PoolBackend(workers=2)
    try:
        pool_cold = timed(
            "pool-cold",
            lambda: run_full_flow(cells=cells, engine=Engine(
                backend=pool, cache_dir=tmp_path / "pool-cold")),
            workers=2)
        # Same pool, fresh cache: the workers are already warm.
        pool_warm = timed(
            "pool-warm-workers",
            lambda: run_full_flow(cells=cells, engine=Engine(
                backend=pool, cache_dir=tmp_path / "pool-warm")),
            workers=2)
    finally:
        pool.shutdown()

    shared_cache = tmp_path / "shared"
    env = chaos.repro_env(shared_cache)
    start = time.perf_counter()
    outcomes = chaos.run_concurrent_flows(
        [chaos.flow_argv(cells=cells, variants=("2D", "1-ch", "2-ch",
                                                "4-ch"),
                         extraction_variants=("TRADITIONAL", "ONE",
                                              "TWO", "FOUR"),
                         run_id=f"bench-shared-{i}", backend="serial")
         for i in (1, 2)], env)
    shared_s = time.perf_counter() - start
    assert all(o.returncode == 0 for o in outcomes), \
        outcomes[0].stderr[-500:]
    rows["shared-cache-2proc"] = {"wall_s": shared_s, "workers": 2,
                                  "result": None}

    warm = timed(
        "warm-cache",
        lambda: run_full_flow(cells=cells, engine=Engine(
            backend="serial", cache_dir=tmp_path / "serial")),
        workers=1)

    assert warm.manifest.hit_rate() == 1.0
    assert serial_cold.headline() == warm.headline() \
        == pool_cold.headline() == pool_warm.headline()
    for i in (1, 2):
        assert load_run(shared_cache,
                        f"bench-shared-{i}").status == "completed"

    cold_s = rows["serial-cold"]["wall_s"]
    cpus = os.cpu_count() or 1
    backends = {}
    for name, row in rows.items():
        flow = row.pop("result")
        manifest = flow.manifest.summary() if flow is not None else None
        effective = min(row["workers"], cpus)
        backends[name] = {
            "wall_s": row["wall_s"],
            "workers": row["workers"],
            "effective_parallelism": effective,
            "speedup_vs_serial_cold": cold_s / row["wall_s"],
            "parallel_efficiency":
                (cold_s / row["wall_s"]) / effective,
            "transfer_bytes": (manifest["transfer_bytes"]
                               if manifest else None),
            "manifest": manifest,
        }

    payload = {
        "flow": {"cells": cells,
                 "tasks": len(serial_cold.manifest.records)},
        "cpu_count": os.cpu_count(),
        "backends": backends,
        # Back-compat headline numbers (pre-1.5 schema).
        "cold_run_s": cold_s,
        "warm_run_s": backends["warm-cache"]["wall_s"],
        "parallel_run_s": backends["pool-warm-workers"]["wall_s"],
        "parallel_workers": 2,
        "speedup_parallel_vs_cold":
            backends["pool-warm-workers"]["speedup_vs_serial_cold"],
        "speedup_warm_vs_cold":
            backends["warm-cache"]["speedup_vs_serial_cold"],
    }
    out_path = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
