"""The complete paper pipeline in one call.

TCAD characterisation of all eight devices -> staged extraction ->
standard-cell simulation -> PPA comparison + area report.  This is what
the benchmark harness and the end-to-end example drive.

The whole run is submitted to the execution engine as a single task
graph — 8 independent (variant, polarity) extractions feeding up to 56
independent (cell, variant) transients — so a parallel engine fans the
grid out across workers and a warm artifact cache skips straight to the
report assembly.  ``FullFlowResult.manifest`` records what actually
happened, task by task.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cells.library import CELL_NAMES
from repro.cells.netlist_builder import Parasitics
from repro.cells.variants import DeviceVariant
from repro.engine import Engine, RunManifest, default_engine
from repro.engine.pipeline import (
    cell_ppa_tasks,
    extraction_tasks,
    merge_tasks,
)
from repro.extraction.results import ExtractionReport
from repro.geometry.process import ProcessParameters
from repro.geometry.transistor_layout import ChannelCount
from repro.layout.report import AreaReport, build_area_report
from repro.ppa.comparison import PpaComparison
from repro.ppa.runner import DEFAULT_DT
from repro.tcad.device import Polarity


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
    variants = variants or list(ChannelCount)
    engine = engine if engine is not None else default_engine()
    pairs = [extraction_tasks(variant, polarity, process)
             for variant in variants
             for polarity in (Polarity.NMOS, Polarity.PMOS)]
    run = engine.run(merge_tasks(*[support for _, support in pairs]))
    return ExtractionReport([run[task.id] for task, _ in pairs])


def build_flow_graph(cells: List[str],
                     cell_variants: List[DeviceVariant],
                     channel_variants: List[ChannelCount],
                     process: Optional[ProcessParameters] = None,
                     parasitics: Optional[Parasitics] = None,
                     dt: float = DEFAULT_DT):
    """Assemble the full-pipeline task graph.

    Returns ``(graph, extraction_pairs, ppa_pairs)`` — the merged task
    list plus the (result task, support tasks) pairs needed to pick the
    report artefacts back out of a run.  Shared by :func:`run_full_flow`
    and the durable flow runner so a resumed run rebuilds the *same*
    graph (hence the same content-addressed fingerprints) from the
    journalled parameters.
    """
    extraction_pairs = [extraction_tasks(variant, polarity, process)
                        for variant in channel_variants
                        for polarity in (Polarity.NMOS, Polarity.PMOS)]
    ppa_pairs = [cell_ppa_tasks(cell, variant, parasitics, dt, process)
                 for cell in cells for variant in cell_variants]
    graph = merge_tasks(*[support for _, support in extraction_pairs],
                        *[support for _, support in ppa_pairs])
    return graph, extraction_pairs, ppa_pairs


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
    cells = cells or list(CELL_NAMES)
    channel_variants = extraction_variants or list(ChannelCount)
    cell_variants = variants or list(DeviceVariant)
    dt = dt if dt is not None else DEFAULT_DT
    engine = engine if engine is not None else default_engine()

    graph, extraction_pairs, ppa_pairs = build_flow_graph(
        cells, cell_variants, channel_variants, process, parasitics, dt)
    run = engine.run(graph)
    return assemble_flow_result(run, extraction_pairs, ppa_pairs)
