"""Contract checks of the perf benchmark.

    PYTHONPATH=src python -m pytest benchmarks/perf

Not collected by the tier-1 suite (``testpaths`` is ``tests/``).  Checks
the ``BENCHMARK.json`` schema, that the layer wrappers restore every
attribute they patch and leave results bit-identical, and that the
benchmark refuses to run where it cannot measure.
"""

from __future__ import annotations

import dataclasses
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import layer_trace
import run
from benchlib import (
    BENCHMARK_FILE,
    PERF_DIR,
    ROOT,
    WORKLOADS,
    hermetic_env,
    load_benchmark,
    pass_cost,
    pass_ms,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


@pytest.fixture(scope="module")
def contract():
    return load_benchmark()


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_top_level_keys_and_size(contract):
    assert set(contract) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK_FILE.stat().st_size <= 64 * 1024
    assert isinstance(contract["run_seconds"], int)
    assert 1 <= contract["run_seconds"] <= 60


def test_paths_and_command_stay_inside_the_benchmark(contract):
    paths = contract["paths"]
    assert 1 <= len(paths) <= 16
    for path in paths:
        assert PATH.match(path) and not path.startswith("/")
        assert ".." not in path.split("/")
        assert (ROOT / path).is_dir()
    command = contract["command"]
    assert 1 <= len(command) <= 32
    for arg in command:
        assert isinstance(arg, str) and len(arg) <= 200
        assert not arg.startswith("/") and ".." not in arg.split("/")
        if "/" in arg:
            assert any(arg.startswith(path + "/") for path in paths)


def test_workloads(contract):
    workloads = contract["workloads"]
    assert 2 <= len(workloads) <= 8
    assert tuple(w["name"] for w in workloads) == WORKLOADS
    for workload in workloads:
        assert set(workload) == {"name", "why"}
        assert NAME.match(workload["name"])
        assert 0 < len(workload["why"]) <= 200
        assert "\n" not in workload["why"]


def test_metric_sections(contract):
    end_to_end, per_layer = contract["end_to_end"], contract["per_layer"]
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    for spec in end_to_end:
        assert set(spec) == {"name", "unit", "better", "bound"}
        assert 0 < spec["bound"] <= 0.25
    for spec in per_layer:
        assert set(spec) == {"name", "unit", "better"}
    names = [spec["name"] for spec in end_to_end + per_layer]
    assert len(names) == len(set(names))
    for spec in end_to_end + per_layer:
        assert NAME.match(spec["name"]), spec["name"]
        assert UNIT.match(spec["unit"]), spec["unit"]
        assert spec["better"] in ("higher", "lower")
    setup = {spec["name"]: spec for spec in end_to_end}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(spec["bound"] for spec in end_to_end)


def test_per_layer_metrics_name_what_they_should_move(contract):
    end_to_end = {spec["name"] for spec in contract["end_to_end"]}
    listed = {spec["name"]: (spec["unit"], spec["better"])
              for spec in contract["per_layer"]}
    assert listed == {name: entry[:2]
                      for name, entry in layer_trace.CATALOGUE.items()}
    for name, (_, _, moves, workloads) in layer_trace.CATALOGUE.items():
        assert moves in end_to_end, name
        assert workloads and set(workloads) <= set(WORKLOADS), name


def test_expected_wiring_names_real_spans():
    for workload, (required, idle) in layer_trace.EXPECTED.items():
        assert workload in WORKLOADS
        assert required <= set(layer_trace.SPAN_LAYERS), workload
        assert idle <= set(layer_trace.LAYERS), workload


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _originals():
    from repro.engine import pipeline  # noqa: F401 - registers stages
    from repro.engine.stages import get_stage
    attrs = {}
    for _, _, target, _ in layer_trace.ENTRY_POINTS:
        owner, attr = layer_trace.resolve(target)
        attrs[target] = vars(owner)[attr]
    stages = {name: get_stage(name) for name in layer_trace.STAGE_LAYERS}
    return attrs, stages


def test_install_then_close_restores_every_attribute():
    from repro.engine.stages import get_stage
    attrs, stages = _originals()
    trace = layer_trace.install(layer_trace.Recorder())
    try:
        for target, original in attrs.items():
            owner, attr = layer_trace.resolve(target)
            assert vars(owner)[attr] is not original, target
        for name, stage in stages.items():
            assert get_stage(name).compute is not stage.compute
    finally:
        trace.close()
    for target, original in attrs.items():
        owner, attr = layer_trace.resolve(target)
        assert vars(owner)[attr] is original, target
    for name, stage in stages.items():
        assert get_stage(name) == stage


def _same(a, b) -> bool:
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _probes():
    from repro.compact.model import BsimSoi4Lite
    from repro.compact.parameters import default_parameters
    from repro.geometry.transistor_layout import ChannelCount
    from repro.tcad.device import Polarity, design_for_variant
    from repro.verify.snapshots import spice_rc_snapshot
    poisson = design_for_variant(ChannelCount.TRADITIONAL,
                                 Polarity.NMOS).engine.poisson
    model = BsimSoi4Lite(params=default_parameters(),
                         polarity=Polarity.NMOS)
    vgs = np.linspace(-0.2, 1.0, 13)
    vds = np.linspace(-0.5, 1.0, 13)
    return {
        "poisson": lambda: poisson.solve(0.6, 0.1),
        "ids_batch": lambda: model.ids_batch(vgs, vds),
        "spice_rc": spice_rc_snapshot,
    }


def test_wrapped_calls_return_bit_identical_results():
    probes = _probes()
    plain = {name: probe() for name, probe in probes.items()}
    recorder = layer_trace.Recorder()
    with layer_trace.install(recorder):
        with recorder.op("probe"):
            wrapped = {name: probe() for name, probe in probes.items()}
    for name in probes:
        assert _same(plain[name], wrapped[name]), name
    acc = recorder.summary()["acc"]
    for span in ("tcad.poisson1d", "compact.ids", "spice.device_eval",
                 "spice.linear_solve"):
        assert acc[span][0] > 0, span


def test_shares_account_for_every_second():
    summary = {"acc": {"op": [2, 10.0, 1.0],
                       "engine.run": [2, 9.0, 2.0],
                       "cache.get": [48, 3.0, 3.0],
                       "stage.cell_ppa": [2, 4.0, 1.0],
                       "spice.transient": [2, 3.0, 3.0]},
               "counts": {}}
    metrics = layer_trace.layer_metrics(
        [summary], [["a", 6.0, 0.5], ["b", 4.0, 0.5]], 2, {}, {"tasks": 48})
    shares = sum(metrics[f"{layer}.self_pct"]
                 for layer in layer_trace.LAYERS)
    assert shares + metrics["outside.self_pct"] == pytest.approx(100.0)
    assert metrics["outside.self_pct"] == pytest.approx(10.0)
    assert metrics["cache.probes_per_task"] == pytest.approx(1.0)
    assert metrics["engine.tasks_per_pass"] == pytest.approx(24.0)
    assert set(metrics) == set(layer_trace.CATALOGUE)


def test_a_pass_is_the_sum_of_each_kinds_median():
    ops = [["a", 1.0, 0.5], ["b", 10.0, 2.0], ["a", 9.0, 0.5],
           ["a", 2.0, 0.5], ["b", 30.0, 2.0]]
    assert pass_ms(ops) == pytest.approx(1000.0 * (2.0 + 20.0))
    assert pass_cost(ops) == pytest.approx(4.0 + 10.0)


# ----------------------------------------------------------------------
# refusing to run
# ----------------------------------------------------------------------
def test_hermetic_env_drops_inherited_settings(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_BACKEND", "pool:8")
    monkeypatch.setenv("REPRO_SOLVER_KERNEL", "loop,dense")
    env = hermetic_env(tmp_path)
    assert "REPRO_BACKEND" not in env
    assert "REPRO_SOLVER_KERNEL" not in env
    assert env["REPRO_CACHE_DIR"].startswith(str(tmp_path))


def test_refuses_to_run_under_fault_injection(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_FAULTS", "stage_exc@cell_ppa")
    assert run.main(["--workload", "inv-cold"]) == 2
    assert "REPRO_FAULTS" in capsys.readouterr().err


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copy(BENCHMARK_FILE, tmp_path / "BENCHMARK.json")
    shutil.copytree(PERF_DIR, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "inv-cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
