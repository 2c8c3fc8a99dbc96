"""Level-70 parameter table for the BSIMSOI4-lite model.

Two groups, mirroring the paper:

* :data:`LEVEL70_CONSTANTS` — the Table II constants and flags that are
  *set*, not extracted (LEVEL, MOBMOD, CAPMOD, IGCMOD, SOIMOD, TSI, TOX,
  TBOX, L, W, TNOM);
* the extractable parameters of Section III-B, each tagged with the
  extraction stage(s) that fit it and bounded for the optimiser.

The "lite" semantics of each parameter are documented per entry; they
follow the BSIMSOI4 intent (mobility law, short-channel V_th, subthreshold
coupling, saturation, overlap capacitance) with simplified equations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping

import numpy as np

from repro.errors import ExtractionError

#: Stage names (Figure 3 of the paper).
STAGE_LOW_DRAIN = "low_drain"
STAGE_HIGH_DRAIN = "high_drain"
STAGE_CAPACITANCE = "capacitance"


@dataclass(frozen=True)
class ParameterSpec:
    """Specification of one extractable model parameter.

    Attributes
    ----------
    name:
        Level-70 parameter name (upper case).
    default:
        Starting value before extraction.
    lower, upper:
        Optimiser bounds.
    unit:
        Physical unit string (documentation only).
    description:
        One-line meaning in the lite model.
    stages:
        Extraction stages that are allowed to adjust this parameter.
    """

    name: str
    default: float
    lower: float
    upper: float
    unit: str
    description: str
    stages: tuple = ()

    def __post_init__(self) -> None:
        if not self.lower <= self.default <= self.upper:
            raise ExtractionError(
                f"{self.name}: default {self.default} outside bounds "
                f"[{self.lower}, {self.upper}]")


#: Table II — constants and flags used in extraction (not fitted).
LEVEL70_CONSTANTS: Dict[str, float] = {
    "LEVEL": 70,       # Spice model selector
    "MOBMOD": 4,       # mobility model selector
    "CAPMOD": 3,       # short-channel capacitance model flag
    "IGCMOD": 0,       # gate-to-channel tunnelling off
    "SOIMOD": 2,       # ideal fully-depleted SOI
    "TSI": 7e-9,       # silicon thickness [m]
    "TOX": 1e-9,       # oxide thickness [m]
    "TBOX": 100e-9,    # buried oxide thickness [m]
    "L": 48e-9,        # channel length entry of Table II [m]
    "W": 192e-9,       # channel width [m]
    "TNOM": 25.0,      # nominal temperature [C]
}

#: Drawn gate length used by the model equations (Table I, L_G = 24 nm).
#: Table II's L refers to the S/D-to-S/D printed length; the transport
#: length is the gate length.
DRAWN_GATE_LENGTH = 24e-9


_SPECS: List[ParameterSpec] = [
    # ---- threshold / short channel -------------------------------------
    ParameterSpec("VTH0", 0.40, 0.05, 0.80, "V",
                  "long-channel threshold voltage",
                  (STAGE_HIGH_DRAIN,)),
    ParameterSpec("DVT0", 1.0, 0.0, 12.0, "-",
                  "short-channel Vth roll-off magnitude",
                  (STAGE_LOW_DRAIN, STAGE_HIGH_DRAIN)),
    ParameterSpec("DVT1", 0.8, 0.15, 4.0, "-",
                  "short-channel roll-off length sensitivity",
                  (STAGE_LOW_DRAIN, STAGE_HIGH_DRAIN)),
    ParameterSpec("ETAB", 0.02, 0.0, 0.35, "V/V",
                  "drain coupling to the barrier (DIBL)",
                  (STAGE_HIGH_DRAIN,)),
    # ---- subthreshold slope --------------------------------------------
    ParameterSpec("CDSC", 1.0e-4, 0.0, 5.0e-2, "F/m^2",
                  "channel-to-S/D coupling capacitance (swing)",
                  (STAGE_LOW_DRAIN, STAGE_HIGH_DRAIN)),
    ParameterSpec("CDSCD", 0.0, 0.0, 5.0e-2, "F/m^2/V",
                  "drain-bias dependence of CDSC",
                  (STAGE_HIGH_DRAIN,)),
    # ---- mobility -------------------------------------------------------
    ParameterSpec("U0", 0.045, 0.005, 0.2, "m^2/Vs",
                  "low-field mobility",
                  (STAGE_LOW_DRAIN, STAGE_HIGH_DRAIN)),
    ParameterSpec("UA", 1.5e-9, 0.0, 1.0e-7, "m/V",
                  "first-order vertical-field mobility degradation",
                  (STAGE_LOW_DRAIN, STAGE_HIGH_DRAIN)),
    ParameterSpec("UB", 1.0e-18, 0.0, 1.0e-16, "m^2/V^2",
                  "second-order vertical-field mobility degradation",
                  (STAGE_LOW_DRAIN,)),
    ParameterSpec("UD", 0.0, 0.0, 2.0, "-",
                  "Coulomb-scattering mobility term weight",
                  (STAGE_LOW_DRAIN,)),
    ParameterSpec("UCS", 1.0, 0.3, 3.0, "-",
                  "Coulomb-scattering exponent",
                  (STAGE_LOW_DRAIN,)),
    # ---- saturation / output conductance --------------------------------
    ParameterSpec("VSAT", 9.0e4, 2.0e4, 4.0e5, "m/s",
                  "carrier saturation velocity",
                  (STAGE_HIGH_DRAIN,)),
    ParameterSpec("PVAG", 0.0, -0.9, 20.0, "-",
                  "gate-bias dependence of the Early voltage",
                  (STAGE_HIGH_DRAIN,)),
    # ---- capacitance -----------------------------------------------------
    ParameterSpec("CKAPPA", 0.6, 0.05, 3.0, "V",
                  "bias-transition voltage of the inner fringe caps",
                  (STAGE_CAPACITANCE,)),
    ParameterSpec("DELVT", 0.0, -0.3, 0.3, "V",
                  "threshold shift applied to the C-V transition",
                  (STAGE_CAPACITANCE,)),
    ParameterSpec("CF", 5.0e-11, 0.0, 5.0e-10, "F/m",
                  "outer fringe capacitance per width",
                  (STAGE_CAPACITANCE,)),
    ParameterSpec("CGSO", 5.0e-11, 0.0, 8.0e-10, "F/m",
                  "gate-source overlap capacitance per width",
                  (STAGE_CAPACITANCE,)),
    ParameterSpec("CGDO", 5.0e-11, 0.0, 8.0e-10, "F/m",
                  "gate-drain overlap capacitance per width",
                  (STAGE_CAPACITANCE,)),
    ParameterSpec("MOIN", 3.0, 0.5, 15.0, "-",
                  "moderate-inversion C-V transition width (in kT/q)",
                  (STAGE_CAPACITANCE,)),
    ParameterSpec("CGSL", 0.0, 0.0, 5.0e-10, "F/m",
                  "bias-dependent gate-source inner fringe",
                  (STAGE_CAPACITANCE,)),
    ParameterSpec("CGDL", 0.0, 0.0, 5.0e-10, "F/m",
                  "bias-dependent gate-drain inner fringe",
                  (STAGE_CAPACITANCE,)),
]

PARAMETER_SPECS: Dict[str, ParameterSpec] = {spec.name: spec for spec in _SPECS}

#: Stage -> parameter names fitted in that stage (Section III-B lists).
EXTRACTION_STAGE_PARAMETERS: Dict[str, List[str]] = {
    STAGE_LOW_DRAIN: ["CDSC", "U0", "UA", "UB", "UD", "UCS", "DVT0", "DVT1"],
    STAGE_HIGH_DRAIN: ["CDSC", "CDSCD", "U0", "UA", "VTH0", "PVAG",
                       "DVT0", "DVT1", "ETAB", "VSAT"],
    STAGE_CAPACITANCE: ["CKAPPA", "DELVT", "CF", "CGSO", "CGDO", "MOIN",
                        "CGSL", "CGDL"],
}


@dataclass
class ParameterSet:
    """A concrete assignment of every extractable parameter.

    Behaves like a mapping restricted to known parameter names; unknown
    names raise :class:`ExtractionError` immediately, which catches typos
    in extraction stage definitions.
    """

    values: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        merged = {name: spec.default for name, spec in PARAMETER_SPECS.items()}
        for name, value in self.values.items():
            if name not in PARAMETER_SPECS:
                raise ExtractionError(f"unknown parameter {name!r}")
            merged[name] = float(value)
        self.values = merged

    def __getitem__(self, name: str) -> float:
        try:
            return self.values[name]
        except KeyError:
            raise ExtractionError(f"unknown parameter {name!r}") from None

    def updated(self, updates: Mapping[str, float]) -> "ParameterSet":
        """Return a copy with ``updates`` applied (bounds-checked)."""
        for name, value in updates.items():
            spec = PARAMETER_SPECS.get(name)
            if spec is None:
                raise ExtractionError(f"unknown parameter {name!r}")
            if not (spec.lower <= value <= spec.upper):
                raise ExtractionError(
                    f"{name}={value} outside bounds "
                    f"[{spec.lower}, {spec.upper}]")
        # ``values`` already holds every parameter, each checked and a
        # float, so the copy skips __post_init__'s merge and re-check.
        new = object.__new__(ParameterSet)
        new.values = dict(self.values)
        new.values.update({k: float(v) for k, v in updates.items()})
        return new

    def subset(self, names: Iterable[str]) -> Dict[str, float]:
        """Extract a {name: value} dict for the given names."""
        return {name: self[name] for name in names}

    def as_dict(self) -> Dict[str, float]:
        """Full parameter dictionary (copy)."""
        return dict(self.values)


def default_parameters() -> ParameterSet:
    """A parameter set at the documented defaults."""
    return ParameterSet()


def per_row(prelude: Callable[..., float], *values):
    """Apply a scalar parameter prelude row by row.

    The model equations take each parameter either as a Python float (one
    parameter set) or as an ``(R, 1, ...)`` column holding R sets (see
    :meth:`repro.compact.model.BsimSoi4Lite.ids_magnitude`).  Scalar
    preludes -- ``math.cosh``, Python ``max``, branches -- do not
    broadcast: they run here on each row's Python floats, so row r is
    computed exactly as a one-set evaluation computes it.
    """
    if not (isinstance(values[0], np.ndarray) and values[0].ndim):
        return prelude(*values)
    rows = zip(*(np.ravel(value).tolist() for value in values))
    return np.reshape([prelude(*row) for row in rows], np.shape(values[0]))
