"""``FlowSpec``: what one request for the flow means, in one place.

Its defaults, name spellings, journal record, run id and task graph are
what ``run_full_flow``, the durable runs, the flows CLI, the service and
``PpaRunner`` all build from their keywords; these tests pin each of them.
"""

import math

import pytest

import repro
from repro.cells.library import CELL_NAMES
from repro.cells.netlist_builder import Parasitics
from repro.cells.variants import DeviceVariant
from repro.engine import Engine
from repro.engine.durability import RunJournal
from repro.engine.pipeline import cell_ppa_tasks, extraction_tasks, merge_tasks
from repro.errors import ConfigError, ReproError
from repro.flows import FlowSpec, resume_run, run_durable_flow
from repro.geometry.process import ProcessParameters
from repro.geometry.transistor_layout import ChannelCount
from repro.ppa.runner import DEFAULT_DT
from repro.tcad.device import Polarity

REDUCED = dict(cells=["INV1X1"], variants=[DeviceVariant.TWO_D],
               extraction_variants=[ChannelCount.TRADITIONAL])

#: The reduced flow's journal record, as the flows CLI and the service
#: have always written it.
REDUCED_RECORD = {
    "cells": ["INV1X1"],
    "variants": ["2D"],
    "extraction_variants": ["TRADITIONAL"],
    "process": None,
    "parasitics": None,
    "dt": 2e-11,
}


def reference_graph(cells, variants, channels, process=None,
                    parasitics=None, dt=DEFAULT_DT):
    """The flow graph spelled out with the pipeline's task builders."""
    extraction = [extraction_tasks(variant, polarity, process)
                  for variant in channels
                  for polarity in (Polarity.NMOS, Polarity.PMOS)]
    ppa = [cell_ppa_tasks(cell, variant, parasitics, dt, process)
           for cell in cells for variant in variants]
    tasks = merge_tasks(*[support for _, support in extraction],
                        *[support for _, support in ppa])
    return ([task.id for task in tasks],
            [task.id for task, _ in extraction],
            [task.id for task, _ in ppa])


def ids(graph):
    tasks, extraction, ppa = graph
    return ([task.id for task in tasks],
            [task.id for task, _ in extraction],
            [task.id for task, _ in ppa])


# ----------------------------------------------------------------------
# defaults and names
# ----------------------------------------------------------------------
def test_defaults_are_the_whole_paper_flow():
    spec = FlowSpec()
    assert spec.cells == CELL_NAMES
    assert spec.variants == tuple(DeviceVariant)
    assert spec.extraction_variants == tuple(ChannelCount)
    assert spec.process is None and spec.parasitics is None
    assert spec.dt == DEFAULT_DT
    # None and empty lists both mean "all", as the entry points had it
    assert FlowSpec(cells=[], variants=None, extraction_variants=[],
                    dt=None) == spec


def test_names_and_members_resolve_alike():
    by_name = FlowSpec(cells=["INV1X1"], variants=["2D", "2-ch"],
                       extraction_variants=["TRADITIONAL", "TWO"])
    by_member = FlowSpec(
        cells=("INV1X1",),
        variants=[DeviceVariant.TWO_D, DeviceVariant.MIV_2CH],
        extraction_variants=[ChannelCount.TRADITIONAL, ChannelCount.TWO])
    assert by_name == by_member
    assert by_name.variants == (DeviceVariant.TWO_D, DeviceVariant.MIV_2CH)


@pytest.mark.parametrize("field,bad", [
    ("cells", ["GHOST"]),
    ("cells", ["INV1X1", 7]),
    ("variants", ["3D"]),
    ("variants", ["TWO_D"]),            # variants are spelled by value
    ("variants", [ChannelCount.TWO]),
    ("extraction_variants", ["two"]),   # channel counts by exact name
    ("extraction_variants", [2]),
    ("extraction_variants", [["TWO"]]),
])
def test_unknown_names_are_config_errors(field, bad):
    with pytest.raises(ConfigError, match="unknown"):
        FlowSpec(**{field: bad})


@pytest.mark.parametrize("dt", [0, -1e-11, "0", math.nan, "nan", math.inf,
                                "-inf", "abc", True, [1e-11]])
def test_bad_dt_is_a_config_error(dt):
    with pytest.raises(ConfigError, match="dt"):
        FlowSpec(dt=dt)


def test_dt_accepts_numbers_and_numeric_strings():
    assert FlowSpec(dt="1e-11").dt == 1e-11
    assert FlowSpec(dt=3).dt == 3.0


@pytest.mark.parametrize("kwargs", [{"cells": ["GHOST"]}, {"dt": 0},
                                    {"dt": math.nan}])
def test_run_full_flow_rejects_a_bad_request_before_any_task(kwargs,
                                                             monkeypatch):
    def never_run(self, tasks, **_):
        raise AssertionError("a task graph ran")

    monkeypatch.setattr(repro.Engine, "run", never_run)
    with pytest.raises(ConfigError):
        repro.run_full_flow(engine=Engine(use_disk=False), **kwargs)


# ----------------------------------------------------------------------
# the task graph
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kwargs,tasks", [
    ({}, 76),                           # 8 extractions + 14 x 4 cells
    ({"cells": ["INV1X1"]}, 24),        # the benchmark's replay flow
    (REDUCED, 6),                       # the CLI's reduced flow
])
def test_graph_is_the_paper_flow_in_order(kwargs, tasks):
    spec = FlowSpec(**kwargs)
    graph = ids(spec.graph())
    assert graph == reference_graph(spec.cells, spec.variants,
                                     spec.extraction_variants)
    assert len(graph[0]) == tasks


def test_graph_carries_process_parasitics_and_dt():
    process = ProcessParameters(t_ox=1.2e-9)
    parasitics = Parasitics(r_miv=8.0)
    spec = FlowSpec(cells=["NAND2X1"], process=process,
                    parasitics=parasitics, dt=1e-11)
    assert ids(spec.graph()) == reference_graph(
        ["NAND2X1"], list(DeviceVariant), list(ChannelCount), process,
        parasitics, 1e-11)
    assert ids(spec.graph()) != ids(FlowSpec(cells=["NAND2X1"]).graph())


# ----------------------------------------------------------------------
# journal record and run id
# ----------------------------------------------------------------------
def test_record_is_the_journal_format():
    assert FlowSpec(**REDUCED).record() == REDUCED_RECORD
    record = FlowSpec(process=ProcessParameters(t_ox=1.2e-9),
                      parasitics=Parasitics(r_miv=8.0)).record()
    assert record["cells"] == list(CELL_NAMES)
    assert record["variants"] == ["2D", "1-ch", "2-ch", "4-ch"]
    assert record["extraction_variants"] == ["TRADITIONAL", "ONE", "TWO",
                                             "FOUR"]
    assert record["process"]["t_ox"] == 1.2e-9
    assert record["parasitics"]["r_miv"] == 8.0


def test_record_round_trips():
    for spec in (FlowSpec(), FlowSpec(**REDUCED),
                 FlowSpec(cells=["NAND2X1"], dt=1e-11,
                          process=ProcessParameters(t_ox=1.2e-9),
                          parasitics=Parasitics(r_miv=8.0))):
        assert FlowSpec.from_record(spec.record()) == spec


def test_a_null_dt_record_is_the_default_step():
    record = dict(REDUCED_RECORD, dt=None)
    assert FlowSpec.from_record(record) == FlowSpec(**REDUCED)


@pytest.mark.parametrize("record", [
    {"cells": ["INV1X1"]},
    dict(REDUCED_RECORD, variants=["3D"]),
    dict(REDUCED_RECORD, process={"no_such_field": 1.0}),
])
def test_unusable_records_are_refused(record):
    with pytest.raises(ReproError, match="unusable"):
        FlowSpec.from_record(record)


def test_run_id_is_a_fingerprint_of_the_record():
    assert FlowSpec(**REDUCED).run_id == "req-8f69f4df3f9032bd"
    assert FlowSpec().run_id == "req-f44c669dab37285d"
    assert FlowSpec(dt=1e-11).run_id != FlowSpec().run_id


# ----------------------------------------------------------------------
# durable runs resume what they journalled
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_default_dt_runs_and_null_dt_journals_resume(tmp_path):
    engine = Engine(backend="serial", cache_dir=tmp_path)
    first = run_durable_flow(dt=None, run_id="dt-none", engine=engine,
                             **REDUCED)
    assert first.result.manifest.status == "completed"
    again = resume_run("dt-none", engine=engine)
    assert again.resumed == 1
    assert again.result.manifest.summary()["cache_hits"] == 6

    # A journal that spelled the default step as null resumes too.
    journal = RunJournal.for_run(tmp_path, "null-dt")
    journal.append({"type": "begin", "run_id": "null-dt",
                    "flow": dict(REDUCED_RECORD, dt=None)})
    journal.close()
    resumed = resume_run("null-dt", engine=engine)
    assert resumed.result.manifest.status == "completed"
    assert resumed.result.manifest.summary()["cache_hits"] == 6


def test_a_different_request_does_not_resume_a_journal(tmp_path,
                                                        monkeypatch):
    monkeypatch.setattr(repro.Engine, "run",
                        lambda self, tasks, **_: pytest.fail("ran"))
    engine = Engine(backend="serial", cache_dir=tmp_path)
    journal = RunJournal.for_run(tmp_path, "r")
    journal.append({"type": "begin", "run_id": "r",
                    "flow": REDUCED_RECORD})
    journal.close()
    with pytest.raises(ReproError, match="different flow parameters"):
        run_durable_flow(run_id="r", engine=engine,
                         **dict(REDUCED, dt=1e-11))
