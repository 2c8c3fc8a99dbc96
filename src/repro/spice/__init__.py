"""A SPICE-class circuit simulator (the paper's HSPICE substitute).

Modified nodal analysis with damped Newton iteration for DC (its rescue
ladder ends in source continuation, a scale on every independent
source), and backward-Euler / trapezoidal transient with
charge-conserving companion models.  Elements: resistor, capacitor,
independent voltage/current sources (DC, PULSE, PWL) and the
BSIMSOI4-lite MOSFET.  Every assembly writes all their values with one
scatter per array, through flat indices built once from the elements'
stamp plans (:mod:`repro.spice.mna`).  Solvers work on batches of
same-topology circuits — a cell's stimulus runs integrate in lockstep
— and a single circuit is the batch of one.
"""

from repro.spice.netlist import Circuit
from repro.spice.elements.resistor import Resistor
from repro.spice.elements.capacitor import Capacitor
from repro.spice.elements.vsource import (
    VoltageSource,
    dc_source,
    pulse_source,
    pwl_source,
)
from repro.spice.elements.isource import CurrentSource
from repro.spice.elements.mosfet import Mosfet
from repro.spice.dcop import OperatingPoint, solve_dc
from repro.spice.transient import TransientResult, transient
from repro.spice.waveform import Waveform
from repro.spice import measure

__all__ = [
    "Circuit",
    "Resistor",
    "Capacitor",
    "VoltageSource",
    "CurrentSource",
    "Mosfet",
    "dc_source",
    "pulse_source",
    "pwl_source",
    "OperatingPoint",
    "solve_dc",
    "transient",
    "TransientResult",
    "Waveform",
    "measure",
]
