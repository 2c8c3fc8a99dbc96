"""Unit helpers.

Internally everything is SI.  The paper quotes dimensions in nanometres and
doping in cm^-3; these helpers keep conversions explicit and greppable.
"""

from __future__ import annotations

#: One nanometre [m].
NM = 1e-9


def nm(value: float) -> float:
    """Convert nanometres to metres."""
    return value * NM


def per_cm3(value: float) -> float:
    """Convert a cm^-3 density to m^-3."""
    return value * 1e6
