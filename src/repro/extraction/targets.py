"""Extraction target bundles: the TCAD curves a device is fitted against."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ExtractionError
from repro.geometry.process import ProcessParameters
from repro.geometry.transistor_layout import ChannelCount
from repro.tcad.characteristics import CVCurve, IdVdFamily, IVCurve
from repro.tcad.device import DeviceDesign, Polarity
from repro.tcad.simulator import SweepSpec, TcadSimulator


@dataclass(frozen=True)
class DeviceTargets:
    """All characteristics of one device used by the three-stage flow.

    Magnitude-space curves (PMOS recorded as |I| / |V|), mirroring how
    extraction tools normalise polarity.
    """

    variant: ChannelCount
    polarity: Polarity
    idvg_lin: IVCurve
    idvg_sat: IVCurve
    idvd: IdVdFamily
    cv: CVCurve
    label: str = ""

    def __post_init__(self) -> None:
        if self.idvg_lin.kind != "idvg" or self.idvg_sat.kind != "idvg":
            raise ExtractionError("transfer targets must be idvg curves")

    def to_dict(self) -> Dict:
        """JSON-compatible representation (for on-disk caching)."""
        return {
            "variant": self.variant.name,
            "polarity": self.polarity.value,
            "idvg_lin": self.idvg_lin.to_dict(),
            "idvg_sat": self.idvg_sat.to_dict(),
            "idvd": self.idvd.to_dict(),
            "cv": self.cv.to_dict(),
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "DeviceTargets":
        """Inverse of :meth:`to_dict`."""
        return cls(
            variant=ChannelCount[data["variant"]],
            polarity=Polarity(data["polarity"]),
            idvg_lin=IVCurve.from_dict(data["idvg_lin"]),
            idvg_sat=IVCurve.from_dict(data["idvg_sat"]),
            idvd=IdVdFamily.from_dict(data["idvd"]),
            cv=CVCurve.from_dict(data["cv"]),
            label=data.get("label", ""),
        )


def characterize_device(device: DeviceDesign,
                        spec: Optional[SweepSpec] = None) -> DeviceTargets:
    """Run the full TCAD sweep plan on a device and bundle the targets."""
    simulator = TcadSimulator(device, spec)
    idvg_lin, idvg_sat, idvd = simulator.iv_sweeps()
    return DeviceTargets(
        variant=device.variant,
        polarity=device.polarity,
        idvg_lin=idvg_lin,
        idvg_sat=idvg_sat,
        idvd=idvd,
        cv=simulator.cv(),
        label=device.label,
    )


def cached_targets(variant: ChannelCount, polarity: Polarity,
                   process: Optional[ProcessParameters] = None,
                   spec: Optional[SweepSpec] = None) -> DeviceTargets:
    """Characterise (variant, polarity) once per inputs, then reuse.

    Thin shim over the execution engine: the artefact is content-
    addressed on the *full* process record and sweep plan (not object
    identity), cached in memory for the life of the process and in the
    on-disk store across processes.  The TCAD sweeps take ~0.1 s per
    device; the extraction flow, the PPA harness and many tests all
    need the same eight devices.
    """
    from repro.engine.pipeline import device_targets
    return device_targets(variant, polarity, process, spec)
