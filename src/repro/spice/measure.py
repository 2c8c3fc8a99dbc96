""".measure-style post-processing: propagation delays and average power."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import SimulationError
from repro.spice.waveform import Waveform


@dataclass(frozen=True)
class DelayMeasurement:
    """One input-edge-to-output-edge propagation measurement."""

    t_in: float
    t_out: float
    in_direction: str
    out_direction: str

    @property
    def delay(self) -> float:
        """Propagation delay [s]."""
        return self.t_out - self.t_in


def propagation_delays(input_wf: Waveform, output_wf: Waveform,
                       vdd: float, threshold_fraction: float = 0.5,
                       settle: float = 0.0) -> List[DelayMeasurement]:
    """All input-edge -> next-output-edge delays at the 50% thresholds.

    For every input crossing (either direction) after ``settle``, the
    first subsequent output crossing (either direction) is paired with
    it.  Input edges that produce no output transition (non-controlling
    input patterns) are skipped.
    """
    level = threshold_fraction * vdd
    measurements: List[DelayMeasurement] = []
    in_edges = [(t, "rise") for t in input_wf.crossings(level, "rise")]
    in_edges += [(t, "fall") for t in input_wf.crossings(level, "fall")]
    in_edges.sort()
    out_rise = output_wf.crossings(level, "rise")
    out_fall = output_wf.crossings(level, "fall")

    for t_in, direction in in_edges:
        if t_in < settle:
            continue
        candidates = [(t, "rise") for t in out_rise if t > t_in]
        candidates += [(t, "fall") for t in out_fall if t > t_in]
        if not candidates:
            continue
        t_out, out_dir = min(candidates)
        # Pair only if the output moves before the next input edge.
        next_inputs = [t for t, _ in in_edges if t > t_in]
        if next_inputs and t_out > next_inputs[0]:
            continue
        measurements.append(DelayMeasurement(t_in, t_out, direction, out_dir))
    return measurements


def average_power(supply_current: Waveform, vdd: float,
                  t0: Optional[float] = None,
                  t1: Optional[float] = None) -> float:
    """Average power [W] drawn from a supply.

    ``supply_current`` is the branch current of the VDD source (positive
    into its + terminal per MNA convention, hence the sign flip).
    """
    if vdd <= 0:
        raise SimulationError("vdd must be positive")
    wf = supply_current
    if t0 is not None or t1 is not None:
        wf = wf.window(t0 if t0 is not None else wf.t[0],
                       t1 if t1 is not None else wf.t[-1])
    return -vdd * wf.mean()
