"""The BSIMSOI4-lite model facade.

Combines the threshold, subthreshold, mobility, current and capacitance
submodules into a single evaluator with the interface the circuit
simulator and the extraction flow consume:

* :meth:`BsimSoi4Lite.ids` — polarity-aware drain current (SPICE signs),
* :meth:`BsimSoi4Lite.ids_magnitude` — vectorised magnitude-space current
  (extraction fitting; optionally over R parameter sets at once),
* :meth:`BsimSoi4Lite.cgg` — total gate capacitance at Vds = 0 (likewise),
* :meth:`BsimSoi4Lite.charges` — conservative terminal charges (qg, qd,
  qs) for transient analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.constants import thermal_voltage
from repro.errors import SimulationError
from repro.materials import SILICON_DIOXIDE
from repro.compact import capacitance as cap_mod
from repro.compact import current as cur_mod
from repro.compact import mobility as mob_mod
from repro.compact.parameters import (
    DRAWN_GATE_LENGTH,
    LEVEL70_CONSTANTS,
    ParameterSet,
)
from repro.compact.subthreshold import effective_overdrive, ideality_factor
from repro.compact.threshold import ThresholdModel
from repro.tcad.device import Polarity


@dataclass
class BsimSoi4Lite:
    """A level-70-lite transistor model instance.

    Parameters
    ----------
    params:
        Extractable parameter values.
    polarity:
        NMOS or PMOS; the analytic core works in magnitude space and this
        class mirrors the signs.
    width:
        Electrical width [m] (Table II: 192 nm).
    length:
        Transport gate length [m] (Table I: L_G = 24 nm).
    temperature:
        Kelvin (Table II TNOM is 25 C).
    name:
        Model-card name.
    """

    params: ParameterSet
    polarity: Polarity = Polarity.NMOS
    width: float = float(LEVEL70_CONSTANTS["W"])
    length: float = DRAWN_GATE_LENGTH
    t_si: float = float(LEVEL70_CONSTANTS["TSI"])
    t_ox: float = float(LEVEL70_CONSTANTS["TOX"])
    temperature: float = 298.15
    name: str = "m_lite"

    def __post_init__(self) -> None:
        if min(self.width, self.length, self.t_si, self.t_ox) <= 0:
            raise SimulationError("model geometry must be positive")
        self.vt_thermal = thermal_voltage(self.temperature)
        self.cox = SILICON_DIOXIDE.permittivity / self.t_ox
        self._threshold = ThresholdModel(self.length, self.t_si, self.t_ox)

    # ------------------------------------------------------------------
    # parameter plumbing
    # ------------------------------------------------------------------
    def with_params(self, updates: Dict[str, float]) -> "BsimSoi4Lite":
        """Return a copy with updated extractable parameters."""
        return replace(self, params=self.params.updated(updates))

    def p(self, name: str) -> float:
        """Shorthand parameter accessor."""
        return self.params[name]

    def to_dict(self) -> Dict:
        """JSON-compatible representation (for on-disk caching)."""
        return {
            "params": self.params.as_dict(),
            "polarity": self.polarity.value,
            "width": self.width,
            "length": self.length,
            "t_si": self.t_si,
            "t_ox": self.t_ox,
            "temperature": self.temperature,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "BsimSoi4Lite":
        """Inverse of :meth:`to_dict`."""
        return cls(
            params=ParameterSet(dict(data["params"])),
            polarity=Polarity(data["polarity"]),
            width=data["width"],
            length=data["length"],
            t_si=data["t_si"],
            t_ox=data["t_ox"],
            temperature=data.get("temperature", 298.15),
            name=data.get("name", "m_lite"),
        )

    # ------------------------------------------------------------------
    # DC current
    # ------------------------------------------------------------------
    def vth(self, vds=0.0) -> np.ndarray:
        """Threshold voltage [V] vs (magnitude-space) drain bias."""
        return self._threshold.vth(self.p("VTH0"), self.p("DVT0"),
                                   self.p("DVT1"), self.p("ETAB"), vds)

    def _parameters(self, rows: Optional[Sequence[ParameterSet]],
                    *bias) -> Callable[[str], object]:
        """Parameter lookup for one evaluation.

        Without ``rows`` a name maps to this instance's Python float.  With
        R parameter sets it maps to an (R, 1, ...) column that broadcasts
        against the ``bias`` arrays, giving the result R leading rows.
        The columns are the rows of one (P, R) table built per call.
        """
        if rows is None:
            return self.params.__getitem__
        shape = (-1,) + (1,) * max(np.ndim(b) for b in bias)
        table = np.array([list(p.values.values()) for p in rows]).T.copy()
        column = {name: i for i, name in enumerate(rows[0].values)}
        return lambda name: table[column[name]].reshape(shape)

    def ids_magnitude(self, vgs, vds,
                      rows: Optional[Sequence[ParameterSet]] = None
                      ) -> np.ndarray:
        """|I_D| [A] in magnitude space (vectorised, vds >= 0).

        ``rows`` evaluates R parameter sets in one call: the result gains
        a leading axis of length R whose row r equals, bit for bit, this
        model with ``params=rows[r]`` evaluated alone.
        """
        vgs = np.asarray(vgs, dtype=float)
        vds = np.asarray(vds, dtype=float)
        p = self._parameters(rows, vgs, vds)
        vth = self._threshold.vth(p("VTH0"), p("DVT0"), p("DVT1"),
                                  p("ETAB"), vds)
        n = ideality_factor(p("CDSC"), p("CDSCD"), self.cox, vds)
        vgsteff = effective_overdrive(vgs, vth, n, self.vt_thermal)
        mu = mob_mod.effective_mobility(
            vgsteff, self.t_ox, p("U0"), p("UA"), p("UB"), p("UD"),
            p("UCS"), self.vt_thermal)
        return cur_mod.drain_current(
            vgsteff, vds, mu, self.cox, self.width, self.length,
            p("VSAT"), p("PVAG"), self.vt_thermal)

    def ids(self, vgs: float, vds: float) -> float:
        """Drain current [A] with SPICE signs (PMOS takes negative biases).

        Negative magnitude-space ``vds`` (reverse operation) is handled by
        source/drain exchange symmetry.
        """
        sign = self.polarity.sign
        vgs_m = sign * vgs
        vds_m = sign * vds
        if vds_m >= 0:
            return sign * float(self.ids_magnitude(vgs_m, vds_m))
        return -sign * float(self.ids_magnitude(vgs_m - vds_m, -vds_m))

    def ids_batch(self, vgs, vds) -> np.ndarray:
        """Vectorised :meth:`ids` over arrays of bias points.

        Used by the circuit simulator to evaluate the nominal point and
        all finite-difference points in one call.
        """
        sign = self.polarity.sign
        vgs_m = sign * np.asarray(vgs, dtype=float)
        vds_m = sign * np.asarray(vds, dtype=float)
        reverse = vds_m < 0
        vgs_eff = np.where(reverse, vgs_m - vds_m, vgs_m)
        vds_eff = np.abs(vds_m)
        magnitude = self.ids_magnitude(vgs_eff, vds_eff)
        return sign * np.where(reverse, -magnitude, magnitude)

    # ------------------------------------------------------------------
    # capacitance / charge
    # ------------------------------------------------------------------
    def _cap_params(self, p: Optional[Callable[[str], object]] = None
                    ) -> cap_mod.CapacitanceParameters:
        p = p or self.p
        return cap_mod.CapacitanceParameters(
            ckappa=p("CKAPPA"), delvt=p("DELVT"), cf=p("CF"),
            cgso=p("CGSO"), cgdo=p("CGDO"), moin=p("MOIN"),
            cgsl=p("CGSL"), cgdl=p("CGDL"))

    def cgg(self, vg, rows: Optional[Sequence[ParameterSet]] = None
            ) -> np.ndarray:
        """Total gate capacitance [F] at Vds = 0, magnitude space.

        ``rows`` evaluates R parameter sets in one call, as in
        :meth:`ids_magnitude`.
        """
        p = self._parameters(rows, vg)
        vth0 = self._threshold.vth(p("VTH0"), p("DVT0"), p("DVT1"),
                                   p("ETAB"), 0.0)
        return cap_mod.gate_capacitance(
            vg, self._cap_params(p), vth0, self.cox, self.width,
            self.length, self.vt_thermal)

    def charges(self, vgs: float, vds: float) -> Tuple[float, float, float]:
        """Conservative terminal charges (qg, qd, qs) [C], SPICE signs.

        The intrinsic channel charge is evaluated at the source-side bias
        and partitioned 50/50; overlap and fringe charges are linear /
        soft functions of their controlling voltages.  qg + qd + qs = 0.
        """
        sign = self.polarity.sign
        vgs_m = sign * vgs
        vgd_m = sign * (vgs - vds)
        params = self._cap_params()
        vth0 = float(self.vth(0.0))

        q_int = float(cap_mod.intrinsic_channel_charge(
            vgs_m, params, vth0, self.cox, self.width, self.length,
            self.vt_thermal))
        q_ov_s = (self.width * (params.cgso + 0.5 * params.cf) * vgs_m +
                  float(cap_mod.fringe_charge(vgs_m, params, self.width, "s")))
        q_ov_d = (self.width * (params.cgdo + 0.5 * params.cf) * vgd_m +
                  float(cap_mod.fringe_charge(vgd_m, params, self.width, "d")))

        qg = q_int + q_ov_s + q_ov_d
        qd = -(0.5 * q_int + q_ov_d)
        qs = -(0.5 * q_int + q_ov_s)
        return sign * qg, sign * qd, sign * qs

    def charges_batch(self, vgs, vds) -> Tuple[np.ndarray, np.ndarray,
                                               np.ndarray]:
        """Vectorised :meth:`charges` over arrays of bias points."""
        sign = self.polarity.sign
        vgs_m = sign * np.asarray(vgs, dtype=float)
        vgd_m = sign * (np.asarray(vgs, dtype=float) -
                        np.asarray(vds, dtype=float))
        params = self._cap_params()
        vth0 = float(self.vth(0.0))

        q_int = cap_mod.intrinsic_channel_charge(
            vgs_m, params, vth0, self.cox, self.width, self.length,
            self.vt_thermal)
        q_ov_s = (self.width * (params.cgso + 0.5 * params.cf) * vgs_m +
                  cap_mod.fringe_charge(vgs_m, params, self.width, "s"))
        q_ov_d = (self.width * (params.cgdo + 0.5 * params.cf) * vgd_m +
                  cap_mod.fringe_charge(vgd_m, params, self.width, "d"))

        qg = q_int + q_ov_s + q_ov_d
        qd = -(0.5 * q_int + q_ov_d)
        qs = -(0.5 * q_int + q_ov_s)
        return sign * qg, sign * qd, sign * qs

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, float]:
        """Operating summary used by reports and tests."""
        return {
            "vth_lin": float(self.vth(0.05)),
            "vth_sat": float(self.vth(1.0)),
            "ion": float(self.ids_magnitude(1.0, 1.0)),
            "ioff": float(self.ids_magnitude(0.0, 1.0)),
            "cgg_max_fF": float(self.cgg(1.0)) * 1e15,
        }
