"""Stimulus plans for cell delay/power simulation.

For every cell input, one transient run: that input gets a full-swing
pulse (one rising and one falling edge) while the other inputs sit at a
sensitising assignment, so the output toggles on both edges.  Averaging
over all runs and both edges gives the paper's "average propagation
delay of the outputs".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.cells.logic import first_sensitizing_assignment
from repro.cells.spec import CellSpec

#: Default pulse timing [s].
EDGE_DELAY = 2.0e-10
PULSE_WIDTH = 1.0e-9
PULSE_RISE = 1.0e-11
PERIOD = 2.4e-9
T_STOP = 2.3e-9


@dataclass(frozen=True)
class StimulusRun:
    """One transient run: which input pulses, what the others hold."""

    toggled_input: str
    static_levels: Dict[str, bool]
    delay: float = EDGE_DELAY
    rise: float = PULSE_RISE
    width: float = PULSE_WIDTH
    period: float = PERIOD
    t_stop: float = T_STOP

    def pulse_kwargs(self, vdd: float) -> Dict[str, float]:
        """PULSE spec arguments for the toggled input."""
        return {
            "v1": 0.0,
            "v2": vdd,
            "delay": self.delay,
            "rise": self.rise,
            "fall": self.rise,
            "width": self.width,
            "period": self.period,
        }


@dataclass(frozen=True)
class StimulusPlan:
    """The full set of runs that characterises one cell."""

    cell_name: str
    runs: Tuple[StimulusRun, ...]


def stimulus_plan_for(spec: CellSpec) -> StimulusPlan:
    """Build the per-input sensitised stimulus plan of a cell."""
    runs: List[StimulusRun] = []
    for input_name in spec.inputs:
        assignment = first_sensitizing_assignment(spec, input_name)
        runs.append(StimulusRun(
            toggled_input=input_name,
            static_levels=dict(assignment),
        ))
    return StimulusPlan(cell_name=spec.name, runs=tuple(runs))
