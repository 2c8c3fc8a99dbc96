"""The sequential extraction flow (Figure 3) and its result object."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.compact.model import BsimSoi4Lite
from repro.compact.parameters import ParameterSet, default_parameters
from repro.errors import ExtractionError
from repro.extraction.error import region_error_percent
from repro.extraction.optimizer import fit_parameters
from repro.extraction.stages import ExtractionStage, default_stage_sequence
from repro.extraction.targets import DeviceTargets
from repro.observe import get_tracer


@dataclass
class ExtractedDevice:
    """A fitted model plus its Table III regional errors.

    Attributes
    ----------
    model:
        The fitted compact model.
    targets:
        The TCAD characteristics it was fitted to.
    errors:
        Region -> error percent: ``{"IDVG": ..., "IDVD": ..., "CV": ...}``.
    stage_rms:
        Stage name -> final optimiser residual RMS (diagnostics).
    """

    model: BsimSoi4Lite
    targets: DeviceTargets
    errors: Dict[str, float] = field(default_factory=dict)
    stage_rms: Dict[str, float] = field(default_factory=dict)

    def max_error(self) -> float:
        """Worst regional error percent (paper claims < 10 everywhere)."""
        return max(self.errors.values())

    def to_dict(self) -> Dict:
        """JSON-compatible representation (for on-disk caching)."""
        return {
            "model": self.model.to_dict(),
            "targets": self.targets.to_dict(),
            "errors": dict(self.errors),
            "stage_rms": dict(self.stage_rms),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ExtractedDevice":
        """Inverse of :meth:`to_dict`."""
        return cls(
            model=BsimSoi4Lite.from_dict(data["model"]),
            targets=DeviceTargets.from_dict(data["targets"]),
            errors=dict(data.get("errors", {})),
            stage_rms=dict(data.get("stage_rms", {})),
        )


class ExtractionFlow:
    """Runs the staged extraction against one device's targets.

    Parameters
    ----------
    stages:
        Stage sequence; defaults to the paper's Low Drain -> High Drain ->
        Capacitance order.
    initial:
        Starting parameter set (defaults from the spec table).
    """

    def __init__(self, stages: Optional[List[ExtractionStage]] = None,
                 initial: Optional[ParameterSet] = None, passes: int = 2):
        self.stages = (default_stage_sequence() if stages is None
                       else list(stages))
        if not self.stages:
            raise ExtractionError("extraction flow needs at least one stage")
        if passes < 1:
            raise ExtractionError("need at least one pass")
        self.initial = initial or default_parameters()
        self.passes = passes

    def run(self, targets: DeviceTargets) -> ExtractedDevice:
        """Execute every stage sequentially and score the result.

        With ``passes > 1`` the whole sequence repeats, letting the
        low-drain stage re-tune mobility around the threshold/saturation
        values settled by the high-drain stage — the usual practice when
        stages share parameters (U0, UA, DVT0, DVT1 appear in both).
        """
        model = BsimSoi4Lite(
            params=self.initial,
            polarity=targets.polarity,
            name=f"{targets.variant.name.lower()}_{targets.polarity.value}",
        )
        stage_rms: Dict[str, float] = {}
        params = self.initial
        tracer = get_tracer()
        with tracer.span("extraction.device", device=model.name,
                         passes=self.passes):
            for stage in self.stages * self.passes:
                template = BsimSoi4Lite(params=params,
                                        polarity=model.polarity,
                                        width=model.width,
                                        length=model.length,
                                        t_si=model.t_si, t_ox=model.t_ox,
                                        name=model.name)
                residual_fn = stage.residual_fn(template, targets)
                with tracer.span("extraction.stage", stage=stage.name,
                                 device=model.name) as stage_span:
                    params, rms = fit_parameters(params,
                                                 stage.parameter_names,
                                                 residual_fn)
                    stage_span.set(rms=rms)
                stage_rms[stage.name] = rms

        fitted = BsimSoi4Lite(params=params, polarity=model.polarity,
                              width=model.width, length=model.length,
                              t_si=model.t_si, t_ox=model.t_ox,
                              name=model.name)
        return ExtractedDevice(
            model=fitted,
            targets=targets,
            errors=score_regions(fitted, targets),
            stage_rms=stage_rms,
        )


def score_regions(model: BsimSoi4Lite,
                  targets: DeviceTargets) -> Dict[str, float]:
    """Table III regional errors (percent) for a fitted model."""
    idvg_parts = []
    for curve in (targets.idvg_lin, targets.idvg_sat):
        sim = model.ids_magnitude(curve.v, curve.fixed_bias)
        idvg_parts.append(region_error_percent(sim, curve.i))
    idvg = sum(idvg_parts) / len(idvg_parts)

    idvd_parts = []
    for curve in targets.idvd.curves:
        sim = model.ids_magnitude(curve.fixed_bias, curve.v)
        idvd_parts.append(region_error_percent(sim, curve.i))
    idvd = sum(idvd_parts) / len(idvd_parts)

    cv = region_error_percent(model.cgg(targets.cv.v), targets.cv.c)
    return {"IDVG": idvg, "IDVD": idvd, "CV": cv}
