"""Property-based tests riding with the verification subsystem:
fingerprint stability/distinctness and compact-model I-V continuity
across operating-region boundaries."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compact.model import BsimSoi4Lite
from repro.compact.parameters import default_parameters
from repro.engine.fingerprint import canonicalize, fingerprint
from repro.tcad.device import Polarity


# ----------------------------------------------------------------------
# fingerprint: stability and distinctness
# ----------------------------------------------------------------------
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2**40, 2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12))
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=12)


@given(mapping=st.dictionaries(st.text(max_size=8), json_scalars,
                               min_size=2, max_size=6))
@settings(max_examples=80, deadline=None)
def test_fingerprint_ignores_dict_insertion_order(mapping):
    reversed_order = dict(reversed(list(mapping.items())))
    assert fingerprint(mapping) == fingerprint(reversed_order)


@given(value=json_values)
@settings(max_examples=80, deadline=None)
def test_fingerprint_is_deterministic(value):
    assert fingerprint(value) == fingerprint(value)
    # Canonical form must be JSON-stable, not merely hash-stable.
    assert canonicalize(value) == canonicalize(value)


@given(mapping=st.dictionaries(st.text(max_size=8),
                               st.integers(-1000, 1000),
                               min_size=1, max_size=6),
       delta=st.integers(1, 7))
@settings(max_examples=80, deadline=None)
def test_fingerprint_distinguishes_value_changes(mapping, delta):
    key = sorted(mapping)[0]
    changed = dict(mapping)
    changed[key] = mapping[key] + delta
    assert fingerprint(changed) != fingerprint(mapping)


@given(x=st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False))
@settings(max_examples=80, deadline=None)
def test_fingerprint_distinguishes_one_ulp(x):
    bumped = math.nextafter(x, math.inf)
    assert fingerprint({"x": bumped}) != fingerprint({"x": x})


def test_fingerprint_numpy_matches_python_floats():
    values = [0.0, 1.0, -2.5, 1e-30]
    assert fingerprint(np.array(values)) == fingerprint(values)
    assert fingerprint(np.float64(2.5)) == fingerprint(2.5)


# ----------------------------------------------------------------------
# compact model: I-V continuity across region boundaries
# ----------------------------------------------------------------------
_MODEL = BsimSoi4Lite(params=default_parameters(),
                      polarity=Polarity.NMOS)
#: Largest plausible transconductance/conductance scale [A/V] — the
#: model drives ~1e-4 A from ~1 V, so 1e-2 A/V bounds any secant slope
#: away from a discontinuity by a wide margin.
_G_MAX = 1e-2

op_voltages = st.floats(min_value=0.0, max_value=1.2,
                        allow_nan=False)
steps = st.floats(min_value=1e-12, max_value=1e-7, allow_nan=False)


@given(vgs=op_voltages, vds=op_voltages, h=steps)
@settings(max_examples=120, deadline=None)
def test_ids_continuous_in_vds(vgs, vds, h):
    """No jump at the linear/saturation hand-off (or anywhere else):
    the secant slope over a vanishing interval stays bounded."""
    lo = _MODEL.ids_magnitude(vgs, vds)
    hi = _MODEL.ids_magnitude(vgs, vds + h)
    assert abs(hi - lo) <= _G_MAX * h + 1e-18


@given(vgs=op_voltages, vds=op_voltages, h=steps)
@settings(max_examples=120, deadline=None)
def test_ids_continuous_in_vgs(vgs, vds, h):
    """No jump at the subthreshold/strong-inversion hand-off."""
    lo = _MODEL.ids_magnitude(vgs, vds)
    hi = _MODEL.ids_magnitude(vgs + h, vds)
    assert abs(hi - lo) <= _G_MAX * h + 1e-18


@given(vgs=op_voltages, h=steps)
@settings(max_examples=80, deadline=None)
def test_cgg_continuous_in_vgs(vgs, h):
    """C-V must be smooth through depletion/inversion (C ~ 1e-15 F,
    dC/dV ~ 1e-14 F/V at most)."""
    lo = float(_MODEL.cgg(np.array([vgs]))[0])
    hi = float(_MODEL.cgg(np.array([vgs + h]))[0])
    assert abs(hi - lo) <= 1e-13 * h + 1e-24


def test_ids_continuous_at_exact_vdsat():
    """Dense sweep through the saturation knee: adjacent 0.1 mV steps
    never jump by more than the bounded-slope budget."""
    vds = np.linspace(0.0, 1.2, 12001)
    ids = _MODEL.ids_magnitude(np.full_like(vds, 0.9), vds)
    jumps = np.abs(np.diff(ids))
    assert float(jumps.max()) <= _G_MAX * (vds[1] - vds[0])
