"""The three extraction stages of Figure 3.

Each stage declares the Section III-B parameter list and builds the
residual vector from the relevant target curves:

1. **Low Drain** — Id-Vg at V_DS = 0.05 V; fits CDSC, U0, UA, UB, UD,
   UCS, DVT0, DVT1 (mobility + short-channel nominals).
2. **High Drain** — Id-Vg at V_DS = 1.0 V plus the Id-Vd family at
   V_GS = 0.4..1.0 V; fits CDSC, CDSCD, U0, UA, VTH0, PVAG, DVT0, DVT1,
   ETAB, VSAT.
3. **Capacitance** — C-V; fits CKAPPA, DELVT, CF, CGSO, CGDO, MOIN,
   CGSL, CGDL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from repro.compact.model import BsimSoi4Lite
from repro.compact.parameters import (
    EXTRACTION_STAGE_PARAMETERS,
    STAGE_CAPACITANCE,
    STAGE_HIGH_DRAIN,
    STAGE_LOW_DRAIN,
)
from repro.extraction.error import ReferenceCurve
from repro.extraction.optimizer import RowResidual
from repro.extraction.targets import DeviceTargets


@dataclass(frozen=True)
class ExtractionStage:
    """One stage: a name, its fit parameters, and its residuals.

    ``residual_fn(template, targets)`` binds the stage residuals to a
    model template and targets: a :class:`RowResidual` mapping R rows of
    values of the fit parameters to an (R, m) residual matrix with one
    model call.
    """

    name: str
    parameter_names: List[str]
    residual_fn: Callable[[BsimSoi4Lite, DeviceTargets], RowResidual]


def _low_drain_builder(model: BsimSoi4Lite,
                       targets: DeviceTargets) -> RowResidual:
    curve = targets.idvg_lin
    reference = ReferenceCurve(curve.i)

    def residuals(names: Sequence[str], values: np.ndarray) -> np.ndarray:
        sim = model.ids_magnitude(curve.v, curve.fixed_bias,
                                  rows=(names, values))
        return reference.mixed(sim, log_weight=0.6)

    return RowResidual(residuals)


def _high_drain_builder(model: BsimSoi4Lite,
                        targets: DeviceTargets) -> RowResidual:
    sat = targets.idvg_sat
    lin = targets.idvg_lin
    family = targets.idvd.curves
    # All six curves in one bias vector: the two Id-Vg curves sweep Vgs
    # at a fixed Vds, the Id-Vd family sweeps Vds at fixed Vgs.
    vgs = np.concatenate([sat.v, lin.v] +
                         [np.full(len(c.v), c.fixed_bias) for c in family])
    vds = np.concatenate([np.full(len(sat.v), sat.fixed_bias),
                          np.full(len(lin.v), lin.fixed_bias)] +
                         [c.v for c in family])
    edges = np.cumsum([0] + [len(c.v) for c in (sat, lin, *family)])
    references = [ReferenceCurve(c.i) for c in (sat, lin, *family)]
    # Stage 1 "passes U0, UA ... for fine-tuning" (Section III-B): tether
    # the shared mobility parameters to their incoming values so this
    # stage refines rather than refits them.
    incoming = [(name, model.p(name)) for name in ("U0", "UA")
                if model.p(name) > 0]

    def tether(names: Sequence[str], row: np.ndarray) -> List[float]:
        return [2.0 * np.log(max(row[names.index(n)] if n in names else v,
                                 1e-12) / max(v, 1e-12))
                for n, v in incoming]

    def residuals(names: Sequence[str], values: np.ndarray) -> np.ndarray:
        sim = model.ids_magnitude(vgs, vds, rows=(names, values))
        curves = [sim[:, a:b] for a, b in zip(edges[:-1], edges[1:])]
        parts = [references[0].mixed(curves[0], log_weight=0.6)]
        # Keep a light anchor on the low-drain curve so the linear region
        # fitted in stage 1 survives the saturation fit.
        parts.append(0.5 * references[1].relative(curves[1]))
        parts.extend(reference.relative(curve) for reference, curve
                     in zip(references[2:], curves[2:]))
        parts.append(np.reshape([tether(names, row) for row in values],
                                (len(values), len(incoming))))
        return np.concatenate(parts, axis=1)

    return RowResidual(residuals)


def _capacitance_builder(model: BsimSoi4Lite,
                         targets: DeviceTargets) -> RowResidual:
    curve = targets.cv
    reference = ReferenceCurve(curve.c)

    def residuals(names: Sequence[str], values: np.ndarray) -> np.ndarray:
        sim = model.cgg(curve.v, rows=(names, values))
        return reference.relative(sim)

    return RowResidual(residuals)


def low_drain_stage() -> ExtractionStage:
    """Stage 1 of Figure 3."""
    return ExtractionStage(STAGE_LOW_DRAIN,
                           EXTRACTION_STAGE_PARAMETERS[STAGE_LOW_DRAIN],
                           _low_drain_builder)


def high_drain_stage() -> ExtractionStage:
    """Stage 2 of Figure 3."""
    return ExtractionStage(STAGE_HIGH_DRAIN,
                           EXTRACTION_STAGE_PARAMETERS[STAGE_HIGH_DRAIN],
                           _high_drain_builder)


def capacitance_stage() -> ExtractionStage:
    """Stage 3 of Figure 3."""
    return ExtractionStage(STAGE_CAPACITANCE,
                           EXTRACTION_STAGE_PARAMETERS[STAGE_CAPACITANCE],
                           _capacitance_builder)


def default_stage_sequence() -> List[ExtractionStage]:
    """The paper's stage order."""
    return [low_drain_stage(), high_drain_stage(), capacitance_stage()]
