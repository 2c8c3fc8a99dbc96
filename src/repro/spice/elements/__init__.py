"""Circuit elements."""

from repro.spice.elements.base import Element, StampPlan
from repro.spice.elements.resistor import Resistor
from repro.spice.elements.capacitor import Capacitor
from repro.spice.elements.vsource import VoltageSource
from repro.spice.elements.isource import CurrentSource
from repro.spice.elements.mosfet import Mosfet

__all__ = [
    "Element",
    "StampPlan",
    "Resistor",
    "Capacitor",
    "VoltageSource",
    "CurrentSource",
    "Mosfet",
]
