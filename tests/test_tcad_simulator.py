"""Sweep drivers and characteristics containers."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.tcad.characteristics import CVCurve, IdVdFamily, IVCurve
from repro.tcad.simulator import SweepSpec


def test_sweep_spec_defaults_match_paper():
    spec = SweepSpec()
    assert spec.vds_lin == pytest.approx(0.05)
    assert spec.vds_sat == pytest.approx(1.0)
    assert spec.idvd_gate_biases == (0.4, 0.6, 0.8, 1.0)


def test_sweep_spec_validation():
    with pytest.raises(SimulationError):
        SweepSpec(vg_start=1.0, vg_stop=0.0)
    with pytest.raises(SimulationError):
        SweepSpec(vg_points=2)
    with pytest.raises(SimulationError):
        SweepSpec(vds_lin=-0.05)


def test_vd_axis_starts_at_linear_bias():
    spec = SweepSpec()
    assert spec.vd_axis[0] == pytest.approx(spec.vds_lin)
    assert spec.vd_axis[-1] == pytest.approx(spec.vds_sat)


def test_id_vg_curves(nmos_targets):
    lin = nmos_targets.idvg_lin
    sat = nmos_targets.idvg_sat
    assert lin.kind == "idvg"
    assert lin.fixed_bias == pytest.approx(0.05)
    assert sat.fixed_bias == pytest.approx(1.0)
    # Saturation curve carries more current everywhere above threshold.
    assert sat.i[-1] > lin.i[-1]
    assert np.all(np.diff(lin.i) > 0)


def test_id_vd_family(nmos_targets):
    family = nmos_targets.idvd
    assert [c.fixed_bias for c in family.curves] == [0.4, 0.6, 0.8, 1.0]
    # Higher gate bias -> higher current at max vds.
    finals = [curve.i[-1] for curve in family.curves]
    assert all(b > a for a, b in zip(finals, finals[1:]))


def test_cv_curve_monotone_rise(nmos_targets):
    cv = nmos_targets.cv
    assert cv.c[-1] > cv.c[0] > 0


def test_ivcurve_validation():
    with pytest.raises(SimulationError):
        IVCurve(np.array([0.0, 0.0]), np.array([1.0, 2.0]), 1.0, "idvg")
    with pytest.raises(SimulationError):
        IVCurve(np.array([0.0, 1.0]), np.array([1.0]), 1.0, "idvg")


def test_ivcurve_roundtrip():
    curve = IVCurve(np.array([0.0, 1.0]), np.array([1e-6, 2e-6]), 0.05,
                    "idvg", "x")
    again = IVCurve.from_dict(curve.to_dict())
    assert np.allclose(again.v, curve.v)
    assert np.allclose(again.i, curve.i)
    assert again.label == "x"


def test_family_requires_idvd_kind():
    curve = IVCurve(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 1.0, "idvg")
    with pytest.raises(SimulationError):
        IdVdFamily([curve])
    with pytest.raises(SimulationError):
        IdVdFamily([])


def test_cv_roundtrip():
    cv = CVCurve(np.array([0.0, 0.5, 1.0]), np.array([1e-16, 2e-16, 3e-16]))
    again = CVCurve.from_dict(cv.to_dict())
    assert np.allclose(again.c, cv.c)


def test_targets_roundtrip(nmos_targets):
    from repro.extraction.targets import DeviceTargets
    again = DeviceTargets.from_dict(nmos_targets.to_dict())
    assert again.variant == nmos_targets.variant
    assert again.polarity == nmos_targets.polarity
    assert np.allclose(again.idvg_lin.i, nmos_targets.idvg_lin.i)
    assert np.allclose(again.cv.c, nmos_targets.cv.c)


@pytest.mark.golden
def test_tcad_targets_match_exact_golden(check_golden):
    """All 110 I-V points and 21 C-V points of one device, bit for bit.

    Extraction amplifies 1e-9 relative noise on the targets into
    percent-level Table III moves, so any change to the sweep drivers
    or the Poisson Newton must reproduce these values exactly.
    """
    from repro.extraction.targets import characterize_device
    from repro.geometry.transistor_layout import ChannelCount
    from repro.tcad.device import Polarity, design_for_variant
    targets = characterize_device(
        design_for_variant(ChannelCount.TWO, Polarity.NMOS))
    measured = {
        "idvg_lin": targets.idvg_lin.i,
        "idvg_sat": targets.idvg_sat.i,
        "idvd": np.array([curve.i for curve in targets.idvd.curves]),
        "cv": targets.cv.c,
    }
    assert sum(np.size(v) for k, v in measured.items() if k != "cv") == 110
    check_golden("tcad_targets", measured, default_tolerance="exact",
                 description="TCAD targets of characterize_device(TWO, "
                             "NMOS): I-V and C-V, bit for bit")
