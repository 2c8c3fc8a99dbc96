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

Two derived sets skip per-call work.  :meth:`DeviceColumns.widened`
materialises every column to (m, N) for a caller whose bias arrays are
(m, N), so each ufunc runs one contiguous loop instead of m broadcast
rows (the MNA assembler's 5·K- and 3·K-point calls).
:meth:`DeviceColumns.with_rows` gives the R-row set of the extraction's
rows on one template model, reading every parameter the rows do not
fit, and every prelude fed only by those, from a table built once per
template and R.
"""

from __future__ import annotations

from functools import cached_property
from math import copysign
from typing import (TYPE_CHECKING, Any, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.compact import capacitance as cap_mod
from repro.compact.mobility import coulomb_groups
from repro.compact.parameters import PARAMETER_SPECS, check_bounds
from repro.compact.threshold import threshold_voltage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compact.model import BsimSoi4Lite


#: The constants of a set: a Python float when every device shares it.
_CONSTANTS = ("sign", "width", "length", "t_ox", "cox", "vt")

#: Every prelude of :class:`DeviceColumns` and the parameters it reads
#: (besides the constants).
PRELUDE_PARAMETERS: Dict[str, Tuple[str, ...]] = {
    "sce": ("DVT0", "DVT1"),
    "coulomb": ("UD", "UCS"),
    "cv_centre": ("VTH0", "DVT0", "DVT1", "ETAB", "DELVT"),
    "cv_width": ("MOIN",),
    "turn_on": ("CKAPPA",),
    "channel": (),
    "static": ("CGSO", "CGDO", "CF"),
    "fringe": ("CGSL", "CGDL"),
    "overlap": ("CGSO", "CGDO", "CF"),
    "inner_fringe": ("CGSL", "CGDL"),
}


class DeviceColumns:
    """The parameter columns of m devices, row i being ``models[i]``.

    Parameters
    ----------
    models:
        One model instance per device; a model may appear several times.

    Parameters are (m, 1) columns.  Geometry, thermal voltage, polarity
    and short-channel shift are a Python float when every device has the
    same value (one column of one value broadcasts the same), so the
    result's device axis comes from the parameters.
    """

    def __init__(self, models: Sequence["BsimSoi4Lite"]):
        self.models = tuple(models)
        # ``ParameterSet.values`` holds every parameter, in spec order.
        table = np.array([list(m.params.values.values())
                          for m in self.models], dtype=float).T.copy()
        #: Parameter name -> (m, 1) column.
        self.p: Dict[str, Any] = dict(zip(PARAMETER_SPECS,
                                          table[:, :, None]))
        (self.sign, self.width, self.length, self.t_ox, self.cox,
         self.vt) = (_column(values) for values in zip(
             *map(_constants, self.models)))
        #: Widened sets and shared row columns, by (kind, width).
        self._cache: Dict[Tuple[str, int], Any] = {}

    @classmethod
    def alone(cls, model: "BsimSoi4Lite") -> "DeviceColumns":
        """``model`` as the set of one, every column a Python float: its
        results take the shape of the bias arrays."""
        one = cls.__new__(cls)
        one.models = (model,)
        one.p = model.params.values
        (one.sign, one.width, one.length, one.t_ox, one.cox,
         one.vt) = _constants(model)
        one._cache = {}
        return one

    def _like(self, models: Tuple["BsimSoi4Lite", ...],
              p: Dict[str, Any]) -> "DeviceColumns":
        """A set of ``models`` with columns ``p`` and this set's
        constants, no prelude computed yet."""
        other = DeviceColumns.__new__(DeviceColumns)
        other.__dict__.update({name: getattr(self, name)
                               for name in _CONSTANTS})
        other.models, other.p, other._cache = models, p, {}
        return other

    def widened(self, width: int) -> "DeviceColumns":
        """This set against (m, ``width``) bias arrays: every (m, 1)
        column, prelude and Coulomb member mask materialised to (m,
        ``width``).  A ufunc on (m, ``width``) operands runs one
        contiguous loop instead of m rows of a broadcast column; its
        elements see the same operand values, so every result is bit
        for bit this set's.  Built on first use per width and kept, so
        every caller shares it (an MNA batch and its ``select``
        sub-batches)."""
        wide = self._cache.get(("wide", width))
        if wide is None:
            wide = self._cache["wide", width] = self._like(
                self.models,
                {name: _wide(v, width) for name, v in self.p.items()})
            for name in _CONSTANTS + tuple(PRELUDE_PARAMETERS):
                setattr(wide, name, _wide(getattr(self, name), width))
        return wide

    def with_rows(self, rows: Sequence[Mapping[str, float]]
                  ) -> "DeviceColumns":
        """The R-row set of this one-model set (:meth:`alone`), row r
        holding the parameter values ``rows[r]`` (every row naming the
        same parameters, each within its bounds: raises
        :class:`~repro.errors.ExtractionError` otherwise).

        Row r equals, bit for bit, the model with those values alone.
        The columns the rows do not name are shared (R, 1) columns of
        this set's values, built once per R; a prelude that reads none
        of the named parameters is this set's own, computed once.
        """
        names = list(rows[0])
        values = np.array([[row[name] for name in names] for row in rows],
                          dtype=float)
        check_bounds(names, values)
        shared = self._cache.get(("rows", len(rows)))
        if shared is None:
            shared = self._cache["rows", len(rows)] = {
                name: _read_only(np.full((len(rows), 1), value))
                for name, value in self.p.items()}
        fitted = set(names)
        rowset = self._like(self.models * len(rows), {
            **shared, **dict(zip(names, values.T.copy()[:, :, None]))})
        for name, reads in PRELUDE_PARAMETERS.items():
            if fitted.isdisjoint(reads):
                setattr(rowset, name, getattr(self, name))
        return rowset

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


def _wide(value, width: int):
    """An (m, 1) column (or a tuple of them, at any depth) repeated to
    (m, ``width``); anything else as it is."""
    if isinstance(value, np.ndarray):
        return np.repeat(value, width, axis=1)
    if isinstance(value, tuple):
        return tuple(_wide(v, width) for v in value)
    return value


def _read_only(column: np.ndarray) -> np.ndarray:
    column.flags.writeable = False
    return column
