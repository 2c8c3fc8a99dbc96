"""The BSIMSOI4-lite model facade.

Combines the threshold, subthreshold, mobility, current and capacitance
submodules into a single evaluator with the interface the circuit
simulator and the extraction flow consume:

* :meth:`BsimSoi4Lite.ids` — polarity-aware drain current (SPICE signs),
* :meth:`BsimSoi4Lite.ids_magnitude` — vectorised magnitude-space current
  (extraction fitting; optionally over R parameter sets at once),
* :meth:`BsimSoi4Lite.cgg` — total gate capacitance at Vds = 0 (likewise),
* :meth:`BsimSoi4Lite.charges` — conservative terminal charges (qg, qd,
  qs) for transient analysis,
* :meth:`BsimSoi4Lite.ids_batch` / :meth:`BsimSoi4Lite.charges_batch` —
  the vectorised forms the circuit simulator calls, once per assembly
  for every MOSFET of a batch (``devices=``).

Every entry point evaluates a
:class:`~repro.compact.columns.DeviceColumns` set through the one
implementation of the equations below: a model alone is the set of one,
``rows=(names, values)`` the set of R parameter rows on this model's
geometry, and ``devices=`` a set of several models, n- and p-devices
mixed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.constants import thermal_voltage
from repro.errors import SimulationError
from repro.materials import SILICON_DIOXIDE
from repro.compact import capacitance as cap_mod
from repro.compact import current as cur_mod
from repro.compact import mobility as mob_mod
from repro.compact.columns import DeviceColumns
from repro.compact.parameters import (
    DRAWN_GATE_LENGTH,
    LEVEL70_CONSTANTS,
    ParameterSet,
)
from repro.compact.subthreshold import effective_overdrive, ideality_factor
from repro.compact.threshold import ThresholdModel, threshold_voltage
from repro.tcad.device import Polarity

#: R parameter rows: k parameter names and their (R, k) values.
Rows = Tuple[Sequence[str], np.ndarray]


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

    def __getstate__(self) -> Dict:
        # The column set kept by ``_columns`` is rebuilt on first use.
        state = dict(self.__dict__)
        state.pop("_alone", None)
        return state

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
    # evaluation
    # ------------------------------------------------------------------
    def vth(self, vds=0.0) -> np.ndarray:
        """Threshold voltage [V] vs (magnitude-space) drain bias."""
        return self._threshold.vth(self.p("VTH0"), self.p("DVT0"),
                                   self.p("DVT1"), self.p("ETAB"), vds)

    def _columns(self, rows: Optional[Rows]) -> DeviceColumns:
        """This model alone, or with each of R parameter rows.  The set
        of one is built once per parameter set and kept, with its
        preludes and its tables for rows."""
        alone = self.__dict__.get("_alone")
        if alone is None or alone.p is not self.params.values:
            alone = self._alone = DeviceColumns.alone(self)
        return alone if rows is None else alone.with_rows(*rows)

    def ids_magnitude(self, vgs, vds, rows: Optional[Rows] = None
                      ) -> np.ndarray:
        """|I_D| [A] in magnitude space (vectorised, vds >= 0).

        ``rows = (names, values)`` evaluates R rows of parameter values
        in one call: ``values`` is (R, k), column j the values of
        ``names[j]``, within its bounds
        (:class:`~repro.errors.ExtractionError` otherwise).  The result
        gains a leading axis of length R whose row r equals, bit for
        bit, this model with those values
        (``with_params(dict(zip(names, values[r])))``) evaluated alone.
        """
        return _ids_magnitude(self._columns(rows), vgs, vds)

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

    def ids_batch(self, vgs, vds,
                  devices: Optional[DeviceColumns] = None) -> np.ndarray:
        """Vectorised :meth:`ids` over arrays of bias points.

        Used by the circuit simulator to evaluate the nominal point and
        all finite-difference points in one call.  ``devices`` evaluates
        that whole set instead of this model alone (this model, the
        set's first, is only the entry point): row i of the (m, N) bias
        arrays holds device i's points, and its values equal, bit for
        bit, ``devices.models[i].ids_batch`` on those points.
        """
        c = self._columns(None) if devices is None else devices
        sign = c.sign
        vgs_m = sign * np.asarray(vgs, dtype=float)
        vds_m = sign * np.asarray(vds, dtype=float)
        reverse = vds_m < 0
        vgs_eff = np.where(reverse, vgs_m - vds_m, vgs_m)
        vds_eff = np.abs(vds_m)
        magnitude = _ids_magnitude(c, vgs_eff, vds_eff)
        return sign * np.where(reverse, -magnitude, magnitude)

    def cgg(self, vg, rows: Optional[Rows] = None) -> np.ndarray:
        """Total gate capacitance [F] at Vds = 0, magnitude space.

        ``rows`` evaluates R rows of parameter values in one call, as in
        :meth:`ids_magnitude`.
        """
        c = self._columns(rows)
        return cap_mod.gate_capacitance(
            vg, c.cv_centre, c.cv_width, c.channel, c.static, c.fringe,
            c.turn_on)

    def charges(self, vgs: float, vds: float) -> Tuple[float, float, float]:
        """Conservative terminal charges (qg, qd, qs) [C], SPICE signs.

        The intrinsic channel charge is evaluated at the source-side bias
        and partitioned 50/50; overlap and fringe charges are linear /
        soft functions of their controlling voltages.  qg + qd + qs = 0.
        """
        qg, qd, qs = self.charges_batch(vgs, vds)
        return float(qg), float(qd), float(qs)

    def charges_batch(self, vgs, vds,
                      devices: Optional[DeviceColumns] = None
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised :meth:`charges` over arrays of bias points;
        ``devices`` as in :meth:`ids_batch`."""
        c = self._columns(None) if devices is None else devices
        sign = c.sign
        vgs = np.asarray(vgs, dtype=float)
        vgs_m = sign * vgs
        vgd_m = sign * (vgs - np.asarray(vds, dtype=float))
        (overlap_s, overlap_d), (fringe_s, fringe_d) = (c.overlap,
                                                        c.inner_fringe)

        q_int = cap_mod.intrinsic_channel_charge(
            vgs_m, c.cv_centre, c.cv_width, c.channel)
        q_ov_s = (overlap_s * vgs_m +
                  cap_mod.fringe_charge(vgs_m, fringe_s, c.turn_on))
        q_ov_d = (overlap_d * vgd_m +
                  cap_mod.fringe_charge(vgd_m, fringe_d, c.turn_on))

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


def _ids_magnitude(c: DeviceColumns, vgs, vds) -> np.ndarray:
    """|I_D| [A] of the devices of ``c`` in magnitude space."""
    vgs = np.asarray(vgs, dtype=float)
    vds = np.asarray(vds, dtype=float)
    p = c.p
    vth = threshold_voltage(p["VTH0"], c.sce, p["ETAB"], vds)
    n = ideality_factor(p["CDSC"], p["CDSCD"], c.cox, vds)
    vgsteff = effective_overdrive(vgs, vth, n, c.vt)
    mu = mob_mod.effective_mobility(
        vgsteff, c.t_ox, p["U0"], p["UA"], p["UB"], p["UD"], c.coulomb,
        c.vt)
    return cur_mod.drain_current(
        vgsteff, vds, mu, c.cox, c.width, c.length, p["VSAT"], p["PVAG"],
        c.vt)
