"""Per-device parameter columns: several model instances in one call.

A :class:`DeviceColumns` holds m devices -- the MOSFETs of a circuit,
n- and p-models mixed, or R parameter sets on one extraction template
-- as (m, 1) float columns: every extractable parameter, the geometry
and thermal constants, the polarity sign, and the parameter-only
preludes of the model equations.  Built once, it serves every call on
those devices.  The columns broadcast against (m, N) bias arrays, row i
holding device i's points (an MNA batch's finite-difference points in
every run), or against (N,) arrays of points shared by every device
(the extraction's bias sweeps); results are (m, N).

Row i of a result is bit for bit device i evaluated alone (the set of
one, :meth:`~repro.compact.model.BsimSoi4Lite.ids_batch` without
``devices``).  Elementwise ufuncs do not depend on an element's
position or on whether an operand is a Python float or a broadcast
column, so each row sees the same values through the same ufunc
sequence.  The two operations that are not elementwise-safe stay
scalar: the short-channel shift's ``math.cosh`` runs per device on
Python floats (:meth:`~repro.compact.threshold.ThresholdModel.sce_shift`),
and the Coulomb term's ``** UCS`` runs once per UCS group with a
Python-float exponent (:func:`~repro.compact.mobility.coulomb_groups`).
"""

from __future__ import annotations

from functools import cached_property
from math import copysign
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compact import capacitance as cap_mod
from repro.compact.mobility import coulomb_groups
from repro.compact.parameters import PARAMETER_SPECS, ParameterSet
from repro.compact.threshold import threshold_voltage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compact.model import BsimSoi4Lite


class DeviceColumns:
    """The parameter columns of m devices, row i being ``models[i]``.

    Parameters
    ----------
    models:
        One model instance per device; a model may appear several times.
    params:
        Parameter sets replacing the models' own, row by row (the
        extraction's R rows on one template model repeated R times).

    Parameters are (m, 1) columns.  Geometry, thermal voltage, polarity
    and short-channel shift are a Python float when every device has the
    same value (one column of one value broadcasts the same), so the
    result's device axis comes from the parameters.
    """

    def __init__(self, models: Sequence["BsimSoi4Lite"],
                 params: Optional[Sequence[ParameterSet]] = None):
        self.models = tuple(models)
        sets = [m.params for m in self.models] if params is None \
            else params
        # ``ParameterSet.values`` holds every parameter, in spec order.
        table = np.array([list(s.values.values()) for s in sets],
                         dtype=float).T.copy()[:, :, None]
        #: Parameter name -> (m, 1) column.
        self.p: Dict[str, Any] = dict(zip(PARAMETER_SPECS, table))
        # Rows on one template model read its constants once.
        distinct = {id(m): m for m in self.models}
        per_device = self.models if len(distinct) > 1 else distinct.values()
        (self.sign, self.width, self.length, self.t_ox, self.cox,
         self.vt) = (_column(values) for values in zip(
             *map(_constants, per_device)))

    @classmethod
    def alone(cls, model: "BsimSoi4Lite") -> "DeviceColumns":
        """``model`` as the set of one, every column a Python float: its
        results take the shape of the bias arrays."""
        one = cls.__new__(cls)
        one.models = (model,)
        one.p = model.params.values
        (one.sign, one.width, one.length, one.t_ox, one.cox,
         one.vt) = _constants(model)
        return one

    def _scalars(self, name: str) -> List[float]:
        value = self.p[name]
        return value.ravel().tolist() if isinstance(value, np.ndarray) \
            else [value]

    # Preludes, each computed once per set on first use.
    @cached_property
    def sce(self) -> np.ndarray:
        """Short-channel threshold shift [V], per device on its floats."""
        return _column(
            [m._threshold.sce_shift(dvt0, dvt1) for m, dvt0, dvt1 in
             zip(self.models, self._scalars("DVT0"), self._scalars("DVT1"))])

    @cached_property
    def coulomb(self) -> Tuple[Tuple[float, Optional[np.ndarray]], ...]:
        """The devices with UD > 0 grouped by their UCS."""
        return coulomb_groups(self._scalars("UD"), self._scalars("UCS"))

    @cached_property
    def cv_centre(self) -> np.ndarray:
        """Centre of the C-V inversion transition: Vth(Vds = 0) + DELVT."""
        p = self.p
        return threshold_voltage(p["VTH0"], self.sce, p["ETAB"],
                                 0.0) + p["DELVT"]

    @cached_property
    def cv_width(self) -> np.ndarray:
        """Width of the C-V inversion transition: max(MOIN, 0.1) vt."""
        return cap_mod.transition_width(self.p["MOIN"], self.vt)

    @cached_property
    def turn_on(self) -> np.ndarray:
        """Inner-fringe transition voltage: max(CKAPPA, 1 mV)."""
        return cap_mod.turn_on_voltage(self.p["CKAPPA"])

    @cached_property
    def channel(self) -> np.ndarray:
        """Intrinsic gate capacitance W L Cox [F]."""
        return self.width * self.length * self.cox

    @cached_property
    def static(self) -> np.ndarray:
        """Overlap plus outer fringe capacitance W (CGSO + CGDO + CF)."""
        p = self.p
        return self.width * (p["CGSO"] + p["CGDO"] + p["CF"])

    @cached_property
    def fringe(self) -> np.ndarray:
        """Inner fringe capacitance W (CGSL + CGDL)."""
        return self.width * (self.p["CGSL"] + self.p["CGDL"])

    @cached_property
    def overlap(self) -> Tuple[np.ndarray, np.ndarray]:
        """Source- and drain-side overlap W (CGSO/CGDO + CF / 2)."""
        p = self.p
        return (self.width * (p["CGSO"] + 0.5 * p["CF"]),
                self.width * (p["CGDO"] + 0.5 * p["CF"]))

    @cached_property
    def inner_fringe(self) -> Tuple[np.ndarray, np.ndarray]:
        """Source- and drain-side inner fringe W CGSL, W CGDL."""
        return self.width * self.p["CGSL"], self.width * self.p["CGDL"]


def _constants(model: "BsimSoi4Lite") -> Tuple[float, ...]:
    """A model's polarity sign, width, length, TOX, Cox and thermal
    voltage."""
    return (model.polarity.sign, model.width, model.length, model.t_ox,
            model.cox, model.vt_thermal)


def _column(values: Sequence[float]):
    """One value per device as an (m, 1) column, or as that value when
    every device has it, bit for bit."""
    first = values[0]
    if all(v == first and copysign(1.0, v) == copysign(1.0, first)
           for v in values):
        return first
    return np.array(values, dtype=float).reshape(-1, 1)
