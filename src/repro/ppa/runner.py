"""The full cells x variants PPA sweep."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cells.netlist_builder import (
    CellNetlist,
    Parasitics,
    build_cell_circuit,
)
from repro.cells.spec import CellSpec
from repro.cells.variants import DeviceVariant, ModelSet, extracted_model_set
from repro.cells.vectors import StimulusRun, stimulus_plan_for
from repro.observe import get_tracer
from repro.spice.elements.vsource import PulseSpec
from repro.spice.transient import TransientResult, transient

#: Base (coarse) transient step [s]; edges are auto-refined 20x.
DEFAULT_DT = 2.0e-11


@dataclass(frozen=True)
class CellPPA:
    """PPA numbers of one (cell, variant) implementation."""

    cell_name: str
    variant: DeviceVariant
    delay: float          # s
    power: float          # W
    area: float           # m^2
    substrate: float      # m^2

    @property
    def pdp(self) -> float:
        """Power-delay product [J]."""
        return self.power * self.delay

    def to_dict(self) -> Dict:
        """JSON-compatible representation (for on-disk caching)."""
        return {
            "cell_name": self.cell_name,
            "variant": self.variant.value,
            "delay": self.delay,
            "power": self.power,
            "area": self.area,
            "substrate": self.substrate,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CellPPA":
        """Inverse of :meth:`to_dict`."""
        return cls(
            cell_name=data["cell_name"],
            variant=DeviceVariant(data["variant"]),
            delay=data["delay"],
            power=data["power"],
            area=data["area"],
            substrate=data["substrate"],
        )


def simulate_cell(spec: CellSpec, variant: DeviceVariant,
                  parasitics: Parasitics = Parasitics(),
                  dt: float = DEFAULT_DT,
                  models: Optional[ModelSet] = None,
                  ) -> Tuple[CellNetlist,
                             Dict[str, Tuple[StimulusRun, TransientResult]]]:
    """Run the sensitised stimulus plan of one cell implementation.

    Every run gets its own netlist, and the runs are integrated in
    lockstep by one :func:`transient` call; each run records every
    input and the output.  Returns the last run's netlist (the handles
    measurements need are the same in every run) and, per toggled
    input, its (run, transient).  ``models`` short-circuits the
    extraction chain when the caller (the engine's ``cell_ppa`` stage)
    already holds the variant's model set.
    """
    if models is None:
        models = extracted_model_set(variant)
    plan = stimulus_plan_for(spec)
    netlists = [build_cell_circuit(spec, models, parasitics)
                for _ in plan.runs]
    for netlist, run in zip(netlists, plan.runs):
        _configure_sources(netlist, run)
    netlist = netlists[-1]
    record = [f"in_{name}" for name in spec.inputs] + [netlist.output_node]
    # The runs share one time grid: one pulse timing and one t_stop.
    (t_stop,) = {run.t_stop for run in plan.runs}

    with get_tracer().span("ppa.simulate_cell", cell=spec.name,
                           variant=variant.value, runs=len(plan.runs)):
        results = transient([n.circuit for n in netlists],
                            t_stop=t_stop, dt=dt, method="trap",
                            record_nodes=record)
    return netlist, {run.toggled_input: (run, result)
                     for run, result in zip(plan.runs, results)}


def _configure_sources(netlist: CellNetlist, run: StimulusRun) -> None:
    """Point each input source at the run's stimulus."""
    vdd = netlist.vdd
    for input_name, source_name in netlist.input_sources.items():
        source = netlist.circuit.element(source_name)
        if input_name == run.toggled_input:
            source.waveform = PulseSpec(**run.pulse_kwargs(vdd))
        else:
            level = run.static_levels.get(input_name, False)
            source.waveform = vdd if level else 0.0


class PpaRunner:
    """Engine-backed PPA evaluation across the cells x variants grid.

    Engine-first (1.2 API): construct it around the :class:`Engine` that
    should produce and cache the artefacts::

        from repro.engine import Engine, default_engine
        runner = PpaRunner(engine=default_engine())
        results = runner.sweep(cells=["INV1X1"], variants=None)

    Results are content-addressed on the full request — (cell, variant,
    parasitics, dt, process) — so one runner instance can be reused
    across parasitic or timestep sweeps without ever returning numbers
    computed under different conditions, and two runners with equal
    settings share artefacts through the engine cache.  Its work is
    traced by the engine's tracer (``Engine(observe=...)``).
    """

    def __init__(self, *, engine, parasitics: Optional[Parasitics] = None,
                 dt: float = DEFAULT_DT, process=None):
        self.parasitics = (parasitics if parasitics is not None
                           else Parasitics())
        self.dt = dt if dt is not None else DEFAULT_DT
        self.process = process
        self.engine = engine

    def evaluate(self, cell_name: str, variant: DeviceVariant) -> CellPPA:
        """PPA of one (cell, variant) pair (cached in the engine)."""
        from repro.engine.pipeline import cell_ppa
        return cell_ppa(cell_name, variant, self.parasitics, self.dt,
                        self.process, engine=self.engine)

    def sweep(self, *, cells: Optional[List[str]] = None,
              variants: Optional[List[DeviceVariant]] = None
              ) -> List[CellPPA]:
        """Evaluate a grid of cells and variants.

        The whole grid is submitted as one task graph, so with a
        parallel engine the independent (cell, variant) transients fan
        out across workers as their shared model sets complete.
        """
        from repro.engine.pipeline import merge_tasks
        from repro.flows.full_flow import FlowSpec
        grid = FlowSpec(cells=cells, variants=variants,
                        process=self.process, parasitics=self.parasitics,
                        dt=self.dt).ppa_pairs()
        run = self.engine.run(merge_tasks(*[tasks for _, tasks in grid]))
        return [run[task.id] for task, _ in grid]
