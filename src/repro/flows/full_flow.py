"""The complete paper pipeline in one call.

TCAD characterisation of all eight devices -> staged extraction ->
standard-cell simulation -> PPA comparison + area report.  This is what
the benchmark harness and the end-to-end example drive.

The whole run is submitted to the execution engine as a single task
graph (:meth:`FlowSpec.graph`, the request with its defaults filled
in) — 8 independent (variant, polarity) extractions feeding up to 56
independent (cell, variant) transients — so a parallel engine fans the
grid out across workers and a warm artifact cache skips straight to the
report assembly.  ``FullFlowResult.manifest`` records what actually
happened, task by task.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from operator import attrgetter
from typing import Any, Dict, List, Optional, Tuple

from repro.cells.library import CELL_NAMES
from repro.cells.netlist_builder import Parasitics
from repro.cells.variants import DeviceVariant
from repro.config import require_finite_float
from repro.engine import Engine, RunManifest, default_engine
from repro.engine.fingerprint import fingerprint
from repro.engine.pipeline import (
    cell_ppa_tasks,
    extraction_tasks,
    merge_tasks,
)
from repro.errors import ConfigError, ReproError
from repro.extraction.results import ExtractionReport
from repro.geometry.process import ProcessParameters
from repro.geometry.transistor_layout import ChannelCount
from repro.layout.report import AreaReport, build_area_report
from repro.ppa.comparison import PpaComparison
from repro.ppa.runner import DEFAULT_DT
from repro.tcad.device import Polarity

#: Named fields of a flow request: what one name names, every member
#: (the default, in flow order) and how a member is spelled by name.
_NAMES = {
    "cells": ("cell", list(CELL_NAMES), str),
    "variants": ("variant", list(DeviceVariant), attrgetter("value")),
    "extraction_variants": ("extraction variant", list(ChannelCount),
                            attrgetter("name")),
}


@dataclass(frozen=True)
class FlowSpec:
    """One request for the paper's flow, with its defaults filled in.

    The one place that fills in the defaults (every cell, variant and
    channel count; :data:`~repro.ppa.runner.DEFAULT_DT`), resolves and
    validates names, writes and reads the journal record, derives the
    run id and builds the task graph.  The name fields take members or
    their names (``None`` or empty: all), ``dt`` takes ``None`` for the
    default; anything unusable raises :class:`ConfigError`.
    """

    cells: Tuple[str, ...] = ()
    variants: Tuple[DeviceVariant, ...] = ()
    extraction_variants: Tuple[ChannelCount, ...] = ()
    process: Optional[ProcessParameters] = None
    parasitics: Optional[Parasitics] = None
    dt: float = DEFAULT_DT

    def __post_init__(self) -> None:
        for field in _NAMES:
            object.__setattr__(self, field,
                               self.resolve_names(field,
                                                  getattr(self, field)))
        object.__setattr__(self, "dt", self.resolve_dt(self.dt))

    @staticmethod
    def resolve_names(field: str, items) -> tuple:
        """``items`` (members or their names) of a named field, resolved."""
        what, members, name_of = _NAMES[field]
        if not items:
            return tuple(members)
        known = {name_of(member): member for member in members}
        resolved = []
        for item in items:
            member = known.get(item) if isinstance(item, str) else item
            if member not in members:
                raise ConfigError(f"unknown {what} {item!r}; known: "
                                  f"{', '.join(known)}")
            resolved.append(member)
        return tuple(resolved)

    @staticmethod
    def resolve_dt(value) -> float:
        """The transient step [s]: positive and finite."""
        if value is None:
            return DEFAULT_DT
        if isinstance(value, bool):
            raise ConfigError(f"dt must be a number, got {value!r}")
        return require_finite_float("dt", value, positive=True)

    def record(self) -> Dict[str, Any]:
        """The journal's JSON form: all a resume needs to rebuild the
        identical graph (identical fingerprints)."""
        record: Dict[str, Any] = {
            field: [name_of(member) for member in getattr(self, field)]
            for field, (_, _, name_of) in _NAMES.items()}
        record["process"] = (asdict(self.process)
                             if self.process is not None else None)
        record["parasitics"] = (asdict(self.parasitics)
                                if self.parasitics is not None else None)
        record["dt"] = self.dt
        return record

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "FlowSpec":
        """Inverse of :meth:`record` (``"dt": null`` is the default)."""
        try:
            return cls(
                cells=record["cells"],
                variants=record["variants"],
                extraction_variants=record["extraction_variants"],
                process=(ProcessParameters(**record["process"])
                         if record.get("process") else None),
                parasitics=(Parasitics(**record["parasitics"])
                            if record.get("parasitics") else None),
                dt=record.get("dt"))
        except (KeyError, TypeError, ConfigError) as exc:
            raise ReproError(
                f"journalled flow record is unusable: {exc}") from exc

    @property
    def run_id(self) -> str:
        """Deterministic run id: a retried request resumes its journal."""
        return f"req-{fingerprint(self.record())[:16]}"

    def extraction_pairs(self) -> list:
        """(extraction task, its support tasks) per (variant, polarity)."""
        return [extraction_tasks(variant, polarity, self.process)
                for variant in self.extraction_variants
                for polarity in (Polarity.NMOS, Polarity.PMOS)]

    def ppa_pairs(self) -> list:
        """(PPA task, its support tasks) per (cell, variant) point."""
        return [cell_ppa_tasks(cell, variant, self.parasitics, self.dt,
                               self.process)
                for cell in self.cells for variant in self.variants]

    def graph(self):
        """``(tasks, extraction_pairs, ppa_pairs)`` of the whole flow.

        ``tasks`` is the merged task list; the pairs pick the report
        artefacts back out of a run (:func:`assemble_flow_result`).
        """
        extraction, ppa = self.extraction_pairs(), self.ppa_pairs()
        tasks = merge_tasks(*[support for _, support in extraction + ppa])
        return tasks, extraction, ppa


@dataclass
class FullFlowResult:
    """Everything the paper's evaluation section reports.

    Attributes
    ----------
    extraction:
        Table III (fit errors per device and region).
    ppa:
        Figure 5(a)/(b)/(c) data across cells and variants.
    areas:
        The standalone area report (substrate-area discussion).
    manifest:
        The engine run manifest (per-task wall time, cache hit/miss,
        worker id); ``None`` only for hand-assembled results.
    """

    extraction: ExtractionReport
    ppa: PpaComparison
    areas: AreaReport
    manifest: Optional[RunManifest] = None

    def headline(self) -> dict:
        """The abstract's headline claims, measured."""
        return {
            "max_extraction_error_percent": self.extraction.max_error(),
            "area_reduction_2ch_percent":
                -self.ppa.average_change_percent(DeviceVariant.MIV_2CH,
                                                 "area"),
            "pdp_reduction_2ch_percent":
                -self.ppa.average_change_percent(DeviceVariant.MIV_2CH,
                                                 "pdp"),
            "delay_change_1ch_percent":
                self.ppa.average_change_percent(DeviceVariant.MIV_1CH,
                                                "delay"),
        }


def run_extractions(*, variants: Optional[List[ChannelCount]] = None,
                    process: Optional[ProcessParameters] = None,
                    engine: Optional[Engine] = None) -> ExtractionReport:
    """Extract compact models for every (variant, polarity) pair.

    All (variant, polarity) extractions are independent, so a parallel
    engine characterises and fits them concurrently.
    """
    pairs = FlowSpec(extraction_variants=variants,
                     process=process).extraction_pairs()
    engine = engine if engine is not None else default_engine()
    run = engine.run(merge_tasks(*[support for _, support in pairs]))
    return ExtractionReport([run[task.id] for task, _ in pairs])


def assemble_flow_result(run, extraction_pairs, ppa_pairs) -> FullFlowResult:
    """Pick the report artefacts out of a completed engine run."""
    extraction = ExtractionReport(
        [run[task.id] for task, _ in extraction_pairs])
    results = [run[task.id] for task, _ in ppa_pairs]
    return FullFlowResult(
        extraction=extraction,
        ppa=PpaComparison.from_results(results),
        areas=build_area_report(),
        manifest=run.manifest,
    )


def run_full_flow(*, cells: Optional[List[str]] = None,
                  variants: Optional[List[DeviceVariant]] = None,
                  extraction_variants: Optional[List[ChannelCount]] = None,
                  process: Optional[ProcessParameters] = None,
                  parasitics: Optional[Parasitics] = None,
                  dt: float = DEFAULT_DT,
                  engine: Optional[Engine] = None) -> FullFlowResult:
    """Run the whole pipeline as one engine task graph.

    ``cells`` defaults to all 14 cells (several minutes of cold serial
    simulation); pass a subset for a faster run.  Results are
    bit-identical across engine backends, only the wall time and the
    manifest's worker ids differ.  For a journalled, resumable run use
    :func:`repro.flows.run_durable_flow`.
    """
    spec = FlowSpec(cells=cells, variants=variants,
                    extraction_variants=extraction_variants,
                    process=process, parasitics=parasitics, dt=dt)
    graph, extraction_pairs, ppa_pairs = spec.graph()
    engine = engine if engine is not None else default_engine()
    return assemble_flow_result(engine.run(graph), extraction_pairs,
                                ppa_pairs)
