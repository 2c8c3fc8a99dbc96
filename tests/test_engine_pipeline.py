"""The paper pipeline on the engine: process-aware keys, codecs, dedup.

Includes the regression tests for the stale-cache bug class of the old
ad-hoc memos, which keyed on ``id(process)``: artefacts are now
content-addressed on the full process record, so two different
processes can never share curves or models.
"""

import pytest

from repro.cells.netlist_builder import Parasitics
from repro.cells.variants import DeviceVariant, ModelSet
from repro.engine import default_engine
from repro.engine.pipeline import (
    cell_ppa_tasks,
    merge_tasks,
    model_set_tasks,
    targets_task,
)
from repro.errors import ReproError
from repro.extraction.targets import cached_targets
from repro.geometry.process import DEFAULT_PROCESS
from repro.geometry.transistor_layout import ChannelCount
from repro.tcad.device import Polarity
from repro.tcad.simulator import SweepSpec

#: A coarse sweep plan so process-distinctness tests stay cheap.
FAST_SPEC = SweepSpec(vg_points=5, vd_points=5, cv_points=5,
                      idvd_gate_biases=(0.6, 1.0))


# ----------------------------------------------------------------------
# stale-cache regression: distinct processes -> distinct artefacts
# ----------------------------------------------------------------------
def test_two_processes_yield_distinct_target_artifacts():
    thick = DEFAULT_PROCESS.with_updates(t_si=9e-9)
    default = cached_targets(ChannelCount.TRADITIONAL, Polarity.NMOS,
                             spec=FAST_SPEC)
    shifted = cached_targets(ChannelCount.TRADITIONAL, Polarity.NMOS,
                             process=thick, spec=FAST_SPEC)
    assert default is not shifted
    assert float(shifted.idvg_sat.i[-1]) != float(default.idvg_sat.i[-1])
    # explicit default process and implicit default share one artefact
    explicit = cached_targets(ChannelCount.TRADITIONAL, Polarity.NMOS,
                              process=DEFAULT_PROCESS, spec=FAST_SPEC)
    assert explicit is default


def test_two_processes_never_share_model_set_keys():
    thick = DEFAULT_PROCESS.with_updates(t_si=9e-9)
    task_a, support_a = model_set_tasks(DeviceVariant.MIV_2CH)
    task_b, support_b = model_set_tasks(DeviceVariant.MIV_2CH, thick)
    keys_a = default_engine().task_keys(support_a)
    keys_b = default_engine().task_keys(support_b)
    assert task_a.id != task_b.id
    assert keys_a[task_a.id] != keys_b[task_b.id]
    # every task in the chain is distinct, down to the TCAD sweep
    assert not set(keys_a.values()) & set(keys_b.values())


def test_sweep_spec_is_part_of_the_key():
    a = targets_task(ChannelCount.ONE, Polarity.NMOS)
    b = targets_task(ChannelCount.ONE, Polarity.NMOS, spec=FAST_SPEC)
    assert a.id != b.id


def test_default_process_expansion_is_canonical():
    implicit = targets_task(ChannelCount.ONE, Polarity.NMOS)
    explicit = targets_task(ChannelCount.ONE, Polarity.NMOS,
                            process=DEFAULT_PROCESS, spec=SweepSpec())
    assert implicit == explicit


# ----------------------------------------------------------------------
# PPA keying: (parasitics, dt) are part of the artefact identity
# ----------------------------------------------------------------------
def test_ppa_key_includes_parasitics_and_dt():
    base, _ = cell_ppa_tasks("INV1X1", DeviceVariant.TWO_D)
    heavier, _ = cell_ppa_tasks("INV1X1", DeviceVariant.TWO_D,
                                parasitics=Parasitics(c_load=2e-15))
    finer, _ = cell_ppa_tasks("INV1X1", DeviceVariant.TWO_D, dt=1e-11)
    assert len({base.id, heavier.id, finer.id}) == 3
    default_again, _ = cell_ppa_tasks("INV1X1", DeviceVariant.TWO_D,
                                      parasitics=Parasitics())
    assert default_again == base


def test_ppa_runner_instances_with_equal_settings_share_keys():
    from repro.ppa.runner import PpaRunner

    def runner():
        return PpaRunner(engine=default_engine())

    assert runner().parasitics == Parasitics()
    a, _ = cell_ppa_tasks("INV1X1", DeviceVariant.TWO_D,
                          runner().parasitics, runner().dt)
    b, _ = cell_ppa_tasks("INV1X1", DeviceVariant.TWO_D,
                          runner().parasitics, runner().dt)
    assert a == b


# ----------------------------------------------------------------------
# graph construction
# ----------------------------------------------------------------------
def test_variants_share_the_traditional_pmos_chain():
    _, support_2d = model_set_tasks(DeviceVariant.TWO_D)
    _, support_2ch = model_set_tasks(DeviceVariant.MIV_2CH)
    merged = merge_tasks(support_2d, support_2ch)
    # 2D: trad-n + trad-p chains; 2ch adds only its n chain: the shared
    # PMOS targets+extract tasks appear once.
    pmos_tasks = [t for t in merged if ":p:" in t.id]
    assert len(pmos_tasks) == 2  # one targets + one extract, not four


def test_merge_tasks_rejects_conflicting_definitions():
    task = targets_task(ChannelCount.ONE, Polarity.NMOS)
    impostor = type(task)(id=task.id, stage=task.stage,
                          payload={"different": True})
    with pytest.raises(ReproError, match="conflicting"):
        merge_tasks([task], [impostor])


def test_full_grid_task_count():
    pairs = [cell_ppa_tasks(cell, variant)
             for cell in ("INV1X1", "NAND2X1")
             for variant in DeviceVariant]
    merged = merge_tasks(*[support for _, support in pairs])
    # 5 devices (4 n-type + shared trad p) x 2 (targets+extract)
    # + 4 model sets + 8 ppa points
    assert len(merged) == 5 * 2 + 4 + 8


# ----------------------------------------------------------------------
# codecs round-trip bit-identically
# ----------------------------------------------------------------------
def test_model_set_roundtrip(model_set_2d):
    restored = ModelSet.from_dict(model_set_2d.to_dict())
    assert restored.variant is model_set_2d.variant
    assert restored.nmos.params.as_dict() == model_set_2d.nmos.params.as_dict()
    assert float(restored.pmos.ids_magnitude(1.0, 1.0)) == \
        float(model_set_2d.pmos.ids_magnitude(1.0, 1.0))


def test_extracted_device_roundtrip(extracted_nmos):
    from repro.extraction.flow import ExtractedDevice
    restored = ExtractedDevice.from_dict(extracted_nmos.to_dict())
    assert restored.errors == extracted_nmos.errors
    assert restored.stage_rms == extracted_nmos.stage_rms
    assert restored.model.params.as_dict() == \
        extracted_nmos.model.params.as_dict()
    assert restored.targets.label == extracted_nmos.targets.label


def test_cell_ppa_roundtrip():
    from repro.ppa.runner import CellPPA
    ppa = CellPPA(cell_name="INV1X1", variant=DeviceVariant.MIV_2CH,
                  delay=1.25e-11, power=3.5e-6, area=1e-13, substrate=5e-14)
    restored = CellPPA.from_dict(ppa.to_dict())
    assert restored == ppa
