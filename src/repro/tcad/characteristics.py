"""Containers for simulated device characteristics.

These are the artefacts exchanged between the TCAD substrate and the
extraction flow: Id-Vg curves at fixed V_DS, Id-Vd families over several
V_GS biases, and C-V curves.  All store magnitude-space data (PMOS curves
are recorded as |I| vs |V|, mirroring how extraction tools normalise
polarities).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.errors import SimulationError


def _as_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise SimulationError(f"{name} must be a 1-D array with >= 2 points")
    return arr


@dataclass(frozen=True)
class IVCurve:
    """One current-voltage curve: I(v) at a fixed second bias.

    Attributes
    ----------
    v:
        Swept voltage axis [V] (V_GS for Id-Vg, V_DS for Id-Vd).
    i:
        Current [A] (same length as ``v``).
    fixed_bias:
        The non-swept bias [V].
    kind:
        ``"idvg"`` or ``"idvd"``.
    label:
        Device / condition label.
    """

    v: np.ndarray
    i: np.ndarray
    fixed_bias: float
    kind: str
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "v", _as_array(self.v, "v"))
        object.__setattr__(self, "i", _as_array(self.i, "i"))
        if self.v.size != self.i.size:
            raise SimulationError("v and i must have equal length")
        if not np.all(np.diff(self.v) > 0):
            raise SimulationError("voltage axis must be strictly increasing")

    def to_dict(self) -> Dict:
        """JSON-compatible representation."""
        return {
            "v": self.v.tolist(),
            "i": self.i.tolist(),
            "fixed_bias": self.fixed_bias,
            "kind": self.kind,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "IVCurve":
        """Inverse of :meth:`to_dict`."""
        return cls(np.asarray(data["v"]), np.asarray(data["i"]),
                   data["fixed_bias"], data["kind"], data.get("label", ""))


@dataclass(frozen=True)
class IdVdFamily:
    """A family of Id-Vd curves at several gate biases."""

    curves: List[IVCurve] = field(default_factory=list)
    label: str = ""

    def __post_init__(self) -> None:
        if not self.curves:
            raise SimulationError("IdVdFamily needs at least one curve")
        for curve in self.curves:
            if curve.kind != "idvd":
                raise SimulationError("family curves must be idvd kind")

    def to_dict(self) -> Dict:
        """JSON-compatible representation."""
        return {"curves": [c.to_dict() for c in self.curves],
                "label": self.label}

    @classmethod
    def from_dict(cls, data: Dict) -> "IdVdFamily":
        """Inverse of :meth:`to_dict`."""
        return cls([IVCurve.from_dict(c) for c in data["curves"]],
                   data.get("label", ""))


@dataclass(frozen=True)
class CVCurve:
    """Gate capacitance vs gate voltage at V_DS = 0."""

    v: np.ndarray
    c: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "v", _as_array(self.v, "v"))
        object.__setattr__(self, "c", _as_array(self.c, "c"))
        if self.v.size != self.c.size:
            raise SimulationError("v and c must have equal length")
        if not np.all(np.diff(self.v) > 0):
            raise SimulationError("voltage axis must be strictly increasing")

    def to_dict(self) -> Dict:
        """JSON-compatible representation."""
        return {"v": self.v.tolist(), "c": self.c.tolist(),
                "label": self.label}

    @classmethod
    def from_dict(cls, data: Dict) -> "CVCurve":
        """Inverse of :meth:`to_dict`."""
        return cls(np.asarray(data["v"]), np.asarray(data["c"]),
                   data.get("label", ""))
