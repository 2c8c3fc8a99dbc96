"""The paper pipeline expressed as engine stages and task builders.

Four stages mirror the data flow of the paper (Fig. 3 extraction feeding
the Section IV cell evaluation):

* ``tcad_targets`` — TCAD characterisation of one (variant, polarity)
  device under one process / sweep plan;
* ``extraction``  — the staged compact-model extraction against those
  targets;
* ``model_set``   — the (nmos, pmos) model pair a cell variant
  instantiates (n-type from the variant, p-type always traditional);
* ``cell_ppa``    — transient simulation + delay/power/area measurement
  of one (cell, variant) implementation under given parasitics/dt.

Every payload embeds the **full process record** (defaults expanded),
so two different :class:`~repro.geometry.process.ProcessParameters` can
never share an artefact — the stale-cache class of the old ad-hoc memos,
which keyed on ``id(process)``, is structurally impossible here.

Task builders return the task plus its transitive supporting tasks;
:func:`merge_tasks` dedupes shared support (all four variants share the
traditional PMOS chain, every cell of a variant shares its model set).
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cells.variants import DeviceVariant, ModelSet
from repro.engine.executor import Engine, Task, default_engine
from repro.engine.fingerprint import fingerprint
from repro.engine.stages import register_stage
from repro.errors import ReproError
from repro.geometry.process import DEFAULT_PROCESS, ProcessParameters
from repro.geometry.transistor_layout import ChannelCount
from repro.tcad.device import Polarity
from repro.tcad.simulator import SweepSpec

#: Stage names (for manifest queries and cache layout).
STAGE_TARGETS = "tcad_targets"
STAGE_EXTRACTION = "extraction"
STAGE_MODEL_SET = "model_set"
STAGE_CELL_PPA = "cell_ppa"

#: Default extraction pass count (mirrors ``ExtractionFlow``).
EXTRACTION_PASSES = 2


# ----------------------------------------------------------------------
# payload records (canonical, defaults expanded)
# ----------------------------------------------------------------------
def process_record(process: Optional[ProcessParameters]) -> Dict[str, float]:
    """Full process record; ``None`` expands to the Table I defaults."""
    return asdict(process or DEFAULT_PROCESS)


def sweep_record(spec: Optional[SweepSpec]) -> Dict[str, Any]:
    """Full sweep-plan record; ``None`` expands to the paper defaults."""
    record = asdict(spec or SweepSpec())
    record["idvd_gate_biases"] = [float(v)
                                  for v in record["idvd_gate_biases"]]
    return record


def parasitics_record(parasitics) -> Dict[str, float]:
    """Full parasitics record (import-cycle-free duck typing)."""
    return asdict(parasitics)


def _process_from(record: Dict[str, float]) -> ProcessParameters:
    return ProcessParameters(**record)


def _sweep_from(record: Dict[str, Any]) -> SweepSpec:
    record = dict(record)
    record["idvd_gate_biases"] = tuple(record["idvd_gate_biases"])
    return SweepSpec(**record)


def _single_dep(deps: Dict[str, Any], stage: str) -> Any:
    if len(deps) != 1:
        raise ReproError(f"{stage} expects exactly one dependency, "
                         f"got {sorted(deps)}")
    return next(iter(deps.values()))


# ----------------------------------------------------------------------
# stage compute functions (pure; run in pool workers)
# ----------------------------------------------------------------------
def _compute_targets(payload: Dict, deps: Dict[str, Any]):
    from repro.extraction.targets import characterize_device
    from repro.tcad.device import design_for_variant

    device = design_for_variant(
        ChannelCount[payload["variant"]],
        Polarity(payload["polarity"]),
        _process_from(payload["process"]),
    )
    return characterize_device(device, _sweep_from(payload["sweep"]))


def _compute_extraction(payload: Dict, deps: Dict[str, Any]):
    from repro.extraction.flow import ExtractionFlow

    targets = _single_dep(deps, STAGE_EXTRACTION)
    return ExtractionFlow(passes=payload["passes"]).run(targets)


def _compute_model_set(payload: Dict, deps: Dict[str, Any]) -> ModelSet:
    by_polarity = {}
    for extracted in deps.values():
        by_polarity[extracted.targets.polarity] = extracted
    if set(by_polarity) != {Polarity.NMOS, Polarity.PMOS}:
        raise ReproError("model_set needs one NMOS and one PMOS extraction")
    return ModelSet(
        variant=DeviceVariant(payload["variant"]),
        nmos=by_polarity[Polarity.NMOS].model,
        pmos=by_polarity[Polarity.PMOS].model,
    )


def _compute_cell_ppa(payload: Dict, deps: Dict[str, Any]):
    from repro.cells.library import get_cell
    from repro.cells.netlist_builder import Parasitics
    from repro.ppa.area import cell_area, substrate_area
    from repro.ppa.delay import measure_cell_delay
    from repro.ppa.power import measure_cell_power
    from repro.ppa.runner import CellPPA, simulate_cell

    models = _single_dep(deps, STAGE_CELL_PPA)
    spec = get_cell(payload["cell"])
    variant = DeviceVariant(payload["variant"])
    netlist, results = simulate_cell(
        spec, variant, Parasitics(**payload["parasitics"]),
        payload["dt"], models=models)
    return CellPPA(
        cell_name=spec.name,
        variant=variant,
        delay=measure_cell_delay(netlist, results),
        power=measure_cell_power(netlist, results),
        area=cell_area(spec, variant),
        substrate=substrate_area(spec, variant),
    )


# ----------------------------------------------------------------------
# codecs
# ----------------------------------------------------------------------
def _encode_targets(targets) -> Dict:
    return targets.to_dict()


def _decode_targets(data: Dict):
    from repro.extraction.targets import DeviceTargets
    return DeviceTargets.from_dict(data)


def _encode_extraction(extracted) -> Dict:
    return extracted.to_dict()


def _decode_extraction(data: Dict):
    from repro.extraction.flow import ExtractedDevice
    return ExtractedDevice.from_dict(data)


def _encode_model_set(models: ModelSet) -> Dict:
    return models.to_dict()


def _decode_model_set(data: Dict) -> ModelSet:
    return ModelSet.from_dict(data)


def _encode_cell_ppa(ppa) -> Dict:
    return ppa.to_dict()


def _decode_cell_ppa(data: Dict):
    from repro.ppa.runner import CellPPA
    return CellPPA.from_dict(data)


register_stage(STAGE_TARGETS, compute=_compute_targets,
               encode=_encode_targets, decode=_decode_targets)
register_stage(STAGE_EXTRACTION, compute=_compute_extraction,
               encode=_encode_extraction, decode=_decode_extraction)
register_stage(STAGE_MODEL_SET, compute=_compute_model_set,
               encode=_encode_model_set, decode=_decode_model_set)
register_stage(STAGE_CELL_PPA, compute=_compute_cell_ppa,
               encode=_encode_cell_ppa, decode=_decode_cell_ppa)


# ----------------------------------------------------------------------
# task builders
# ----------------------------------------------------------------------
def merge_tasks(*groups: Sequence[Task]) -> List[Task]:
    """Concatenate task groups, deduping shared tasks by id.

    Ids embed a payload fingerprint, so two tasks sharing an id are the
    same task; a same-id task with a different stage or payload is a
    builder bug and raises.
    """
    merged: Dict[str, Task] = {}
    for group in groups:
        for task in group:
            existing = merged.get(task.id)
            if existing is None:
                merged[task.id] = task
            elif existing != task:
                raise ReproError(f"conflicting definitions of task "
                                 f"{task.id!r}")
    return list(merged.values())


def targets_task(variant: ChannelCount, polarity: Polarity,
                 process: Optional[ProcessParameters] = None,
                 spec: Optional[SweepSpec] = None) -> Task:
    """TCAD characterisation task for one (variant, polarity) device."""
    payload = {
        "variant": variant.name,
        "polarity": polarity.value,
        "process": process_record(process),
        "sweep": sweep_record(spec),
    }
    task_id = (f"targets:{variant.name}:{polarity.value}:"
               f"{fingerprint(payload)[:8]}")
    return Task(id=task_id, stage=STAGE_TARGETS, payload=payload)


def extraction_tasks(variant: ChannelCount, polarity: Polarity,
                     process: Optional[ProcessParameters] = None,
                     spec: Optional[SweepSpec] = None,
                     passes: int = EXTRACTION_PASSES,
                     ) -> Tuple[Task, List[Task]]:
    """Extraction task (plus its targets dependency)."""
    targets = targets_task(variant, polarity, process, spec)
    payload = {"passes": passes}
    task_id = (f"extract:{variant.name}:{polarity.value}:"
               f"{fingerprint([payload, targets.id])[:8]}")
    task = Task(id=task_id, stage=STAGE_EXTRACTION, payload=payload,
                deps=(targets.id,))
    return task, [targets, task]


def model_set_tasks(variant: DeviceVariant,
                    process: Optional[ProcessParameters] = None,
                    ) -> Tuple[Task, List[Task]]:
    """Model-set task for a cell variant (plus its extraction chain)."""
    n_task, n_support = extraction_tasks(variant.n_channel_count,
                                         Polarity.NMOS, process)
    p_task, p_support = extraction_tasks(variant.p_channel_count,
                                         Polarity.PMOS, process)
    payload = {"variant": variant.value}
    task_id = (f"models:{variant.name}:"
               f"{fingerprint([payload, n_task.id, p_task.id])[:8]}")
    task = Task(id=task_id, stage=STAGE_MODEL_SET, payload=payload,
                deps=(n_task.id, p_task.id))
    return task, merge_tasks(n_support, p_support, [task])


def cell_ppa_tasks(cell_name: str, variant: DeviceVariant,
                   parasitics=None, dt: Optional[float] = None,
                   process: Optional[ProcessParameters] = None,
                   ) -> Tuple[Task, List[Task]]:
    """PPA task for one (cell, variant) point (plus its model chain)."""
    from repro.cells.netlist_builder import Parasitics
    from repro.ppa.runner import DEFAULT_DT

    models_task, support = model_set_tasks(variant, process)
    payload = {
        "cell": cell_name,
        "variant": variant.value,
        "parasitics": parasitics_record(parasitics
                                        if parasitics is not None
                                        else Parasitics()),
        "dt": float(dt if dt is not None else DEFAULT_DT),
    }
    task_id = (f"ppa:{cell_name}:{variant.name}:"
               f"{fingerprint([payload, models_task.id])[:8]}")
    task = Task(id=task_id, stage=STAGE_CELL_PPA, payload=payload,
                deps=(models_task.id,))
    return task, merge_tasks(support, [task])


# ----------------------------------------------------------------------
# one-artefact conveniences (what the thin API shims call)
# ----------------------------------------------------------------------
def device_targets(variant: ChannelCount, polarity: Polarity,
                   process: Optional[ProcessParameters] = None,
                   spec: Optional[SweepSpec] = None,
                   engine: Optional[Engine] = None):
    """Characterise one device through the engine (cached)."""
    engine = engine or default_engine()
    task = targets_task(variant, polarity, process, spec)
    return engine.run([task])[task.id]


def extracted_device(variant: ChannelCount, polarity: Polarity,
                     process: Optional[ProcessParameters] = None,
                     spec: Optional[SweepSpec] = None,
                     engine: Optional[Engine] = None):
    """Extract one device's compact model through the engine (cached)."""
    engine = engine or default_engine()
    task, support = extraction_tasks(variant, polarity, process, spec)
    return engine.run(support)[task.id]


def model_set(variant: DeviceVariant,
              process: Optional[ProcessParameters] = None,
              engine: Optional[Engine] = None) -> ModelSet:
    """Materialise a variant's (nmos, pmos) models through the engine."""
    engine = engine or default_engine()
    task, support = model_set_tasks(variant, process)
    return engine.run(support)[task.id]


def cell_ppa(cell_name: str, variant: DeviceVariant, parasitics=None,
             dt: Optional[float] = None,
             process: Optional[ProcessParameters] = None,
             engine: Optional[Engine] = None):
    """Evaluate one (cell, variant) PPA point through the engine."""
    engine = engine or default_engine()
    task, support = cell_ppa_tasks(cell_name, variant, parasitics, dt,
                                   process)
    return engine.run(support)[task.id]
