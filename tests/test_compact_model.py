"""BsimSoi4Lite facade: DC, capacitance, charges, batching, polarity."""

import numpy as np
import pytest

from repro.compact.columns import DeviceColumns
from repro.compact.model import BsimSoi4Lite
from repro.compact.parameters import default_parameters
from repro.errors import SimulationError
from repro.tcad.device import Polarity


@pytest.fixture(scope="module")
def nmos():
    return BsimSoi4Lite(params=default_parameters(), polarity=Polarity.NMOS)


@pytest.fixture(scope="module")
def pmos():
    return BsimSoi4Lite(params=default_parameters(), polarity=Polarity.PMOS)


def test_cox_from_tox(nmos):
    assert nmos.cox == pytest.approx(3.45e-2, rel=0.01)


def test_ids_monotone_in_vgs(nmos):
    vgs = np.linspace(0.0, 1.0, 11)
    ids = nmos.ids_magnitude(vgs, 1.0)
    assert np.all(np.diff(ids) > 0)


def test_ids_monotone_in_vds(nmos):
    vds = np.linspace(0.05, 1.0, 11)
    ids = nmos.ids_magnitude(0.8, vds)
    assert np.all(np.diff(ids) > 0)


def test_on_off_ratio(nmos):
    info = nmos.describe()
    assert info["ion"] / info["ioff"] > 1e4


def test_nmos_signs(nmos):
    assert nmos.ids(1.0, 1.0) > 0
    assert nmos.ids(1.0, -0.5) < 0  # reverse conduction


def test_pmos_signs(pmos):
    assert pmos.ids(-1.0, -1.0) < 0
    assert pmos.ids(0.0, -1.0) == pytest.approx(
        -pmos.ids_magnitude(0.0, 1.0), rel=1e-9)


def test_pmos_mirror_symmetry(nmos, pmos):
    assert pmos.ids(-0.8, -0.6) == pytest.approx(-nmos.ids(0.8, 0.6),
                                                 rel=1e-12)


def test_reverse_mode_source_drain_exchange(nmos):
    # I(vgs, -vds) = -I(vgs + vds, vds).
    assert nmos.ids(0.5, -0.4) == pytest.approx(-nmos.ids(0.9, 0.4),
                                                rel=1e-9)


def test_ids_batch_matches_scalar(nmos):
    vgs = np.array([0.3, 0.8, 1.0, 0.5])
    vds = np.array([1.0, 0.5, -0.3, 0.0])
    batch = nmos.ids_batch(vgs, vds)
    for i in range(4):
        assert batch[i] == pytest.approx(nmos.ids(float(vgs[i]),
                                                  float(vds[i])), rel=1e-9)


def test_ids_batch_pmos(pmos):
    vgs = np.array([-0.3, -0.8, -1.0])
    vds = np.array([-1.0, -0.5, 0.2])
    batch = pmos.ids_batch(vgs, vds)
    for i in range(3):
        assert batch[i] == pytest.approx(pmos.ids(float(vgs[i]),
                                                  float(vds[i])), rel=1e-9)


def test_cgg_monotone_rise(nmos):
    vg = np.linspace(-0.2, 1.2, 29)
    c = nmos.cgg(vg)
    assert np.all(np.diff(c) >= -1e-21)
    assert c[-1] > c[0] > 0


def test_charges_sum_to_zero(nmos):
    qg, qd, qs = nmos.charges(0.8, 0.5)
    assert qg + qd + qs == pytest.approx(0.0, abs=1e-25)


def test_charges_sum_to_zero_pmos(pmos):
    qg, qd, qs = pmos.charges(-0.8, -0.5)
    assert qg + qd + qs == pytest.approx(0.0, abs=1e-25)


def test_gate_charge_increases_with_vgs(nmos):
    qg1 = nmos.charges(0.2, 0.0)[0]
    qg2 = nmos.charges(1.0, 0.0)[0]
    assert qg2 > qg1


def test_charges_batch_matches_scalar(nmos):
    vgs = np.array([0.2, 0.6, 1.0])
    vds = np.array([0.0, 0.4, 1.0])
    qg_b, qd_b, qs_b = nmos.charges_batch(vgs, vds)
    for i in range(3):
        qg, qd, qs = nmos.charges(float(vgs[i]), float(vds[i]))
        assert qg_b[i] == pytest.approx(qg, rel=1e-12)
        assert qd_b[i] == pytest.approx(qd, rel=1e-12)
        assert qs_b[i] == pytest.approx(qs, rel=1e-12)


def test_with_params_functional(nmos):
    raised = nmos.with_params({"VTH0": 0.6})
    assert raised.p("VTH0") == pytest.approx(0.6)
    assert nmos.p("VTH0") != 0.6
    # higher threshold -> lower current
    assert raised.ids_magnitude(1.0, 1.0) < nmos.ids_magnitude(1.0, 1.0)


def test_vth_dibl(nmos):
    assert float(nmos.vth(1.0)) < float(nmos.vth(0.05))


def test_invalid_geometry_rejected():
    with pytest.raises(SimulationError):
        BsimSoi4Lite(params=default_parameters(), width=0.0)


def test_cgg_consistent_with_dqg_dvgs(nmos):
    """Cgg(v) must equal dQg/dVgs at vds = 0 (model self-consistency)."""
    v, dv = 0.7, 1e-5
    qg1 = nmos.charges(v + dv, 0.0)[0]
    qg0 = nmos.charges(v - dv, 0.0)[0]
    assert (qg1 - qg0) / (2 * dv) == pytest.approx(float(nmos.cgg(v)),
                                                   rel=1e-3)


# ---------------------------------------------------------------------------
# device columns: several models in one call
# ---------------------------------------------------------------------------
def _mixed_devices():
    """n- and p-devices with distinct parameter sets: UD = 0 and UD > 0,
    UCS 2.0 (a square), 0.5 (a square root) and a generic exponent, one
    device at another width and temperature, and instances shared by
    two devices."""
    base = default_parameters()
    n_plain = BsimSoi4Lite(params=base.updated(
        {"UD": 0.0, "UCS": 2.0, "VTH0": 0.35, "CGSO": 8e-11}),
        polarity=Polarity.NMOS)
    n_square = BsimSoi4Lite(params=base.updated(
        {"UD": 0.8, "UCS": 2.0, "U0": 0.05, "DVT0": 2.0, "CDSCD": 1e-3}),
        polarity=Polarity.NMOS)
    p_root = BsimSoi4Lite(params=base.updated(
        {"UD": 1.2, "UCS": 0.5, "VTH0": 0.45, "CKAPPA": 0.05,
         "CGSL": 1e-10, "CGDL": 2e-10, "MOIN": 1.0, "DELVT": 0.1}),
        polarity=Polarity.PMOS)
    p_generic = BsimSoi4Lite(params=base.updated(
        {"UD": 0.3, "UCS": 1.37, "ETAB": 0.1, "PVAG": 2.0}),
        polarity=Polarity.PMOS, width=384e-9, temperature=350.0)
    return [n_plain, n_square, p_root, n_square, p_generic, n_plain]


#: Every gate bias against every drain bias: deep subthreshold to strong
#: inversion, +-8 V past the +-80 exponent clips, reverse operation for
#: both polarities and |Vds| < 1e-12 (the conjugate Vdseff form).
_VGS, _VDS = (g.ravel() for g in np.meshgrid(
    [-8.0, -0.3, 0.0, 0.25, 0.6, 1.2, 8.0],
    [-5.0, -1.0, -0.05, -1e-13, 0.0, 1e-13, 0.05, 1.0, 5.0]))


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def test_device_columns_rows_equal_each_device_alone():
    """Row i of a call on a column set equals, bit for bit, device i's
    own model on its own points: its one-model ``ids_batch`` /
    ``charges_batch`` and its scalar ``ids`` / ``charges``."""
    models = _mixed_devices()
    devices = DeviceColumns(models)
    assert {ucs for ucs, _ in devices.coulomb} == {2.0, 0.5, 1.37}
    # Each device its own points: a swapped row cannot pass.
    vgs = np.stack([_VGS + 0.01 * i for i in range(len(models))])
    vds = np.stack([_VDS] * len(models))
    ids = models[0].ids_batch(vgs, vds, devices=devices)
    charges = models[0].charges_batch(vgs, vds, devices=devices)
    assert ids.shape == vgs.shape
    for i, model in enumerate(models):
        assert _bits(ids[i]) == _bits(model.ids_batch(vgs[i], vds[i]))
        assert _bits(ids[i]) == _bits(
            [model.ids(a, b) for a, b in zip(vgs[i].tolist(), _VDS)])
        alone = model.charges_batch(vgs[i], vds[i])
        scalar = np.array([model.charges(a, b)
                           for a, b in zip(vgs[i].tolist(), _VDS)]).T
        for q, q_alone, q_scalar in zip(charges, alone, scalar):
            assert _bits(q[i]) == _bits(q_alone) == _bits(q_scalar)
    # Points shared by every device broadcast to one row per device.
    shared = models[0].ids_batch(_VGS, _VDS, devices=devices)
    for i, model in enumerate(models):
        assert _bits(shared[i]) == _bits(model.ids_batch(_VGS, _VDS))


def test_device_columns_cover_the_exercised_regions():
    """The oracle's points reach every branch they are meant to."""
    devices = DeviceColumns(_mixed_devices())
    signs = devices.sign.ravel()
    reverse = signs[:, None] * _VDS[None] < 0
    assert reverse[signs > 0].any() and reverse[signs < 0].any()
    tiny = (np.abs(_VDS) < 1e-12) & (_VDS != 0.0)
    assert tiny.any() and (_VDS == 0.0).any()
    # The C-V soft-plus ratio passes +-80 on every device, the inner
    # fringe ratio on the small-CKAPPA one.
    ratio = (_VGS - devices.cv_centre) / devices.cv_width
    assert (ratio.max(axis=1) > 80).all() and (ratio.min(axis=1) < -80).all()
    assert (_VGS / devices.turn_on).max() > 80


@pytest.mark.parametrize("runs", [1, 2, 3])
def test_widened_columns_equal_the_column_set_bitwise(runs):
    """The MNA assembler's widths, 5·K' points for ``ids_batch`` and
    3·K' for ``charges_batch`` (K' = 1..3 runs): the materialised
    (m, width) columns give, byte for byte, the (m, 1) set's values."""
    models = _mixed_devices()
    devices = DeviceColumns(models)
    m = len(models)
    for points, call in ((5, "ids_batch"), (3, "charges_batch")):
        width = points * runs
        wide = devices.widened(width)
        assert wide.models == devices.models
        assert wide.p["VTH0"].shape == (m, width)
        assert {ucs for ucs, _ in wide.coulomb} == {2.0, 0.5, 1.37}
        # Each device its own window of the grid, -0.0 included.
        at = (np.arange(width) + 7 * np.arange(m)[:, None]) % _VGS.size
        vgs, vds = _VGS[at], _VDS[at]
        vgs[0, 0] = vds[1, 0] = -0.0
        evaluate = getattr(models[0], call)
        want = evaluate(vgs, vds, devices=devices)
        got = evaluate(vgs, vds, devices=wide)
        assert _bits(got) == _bits(want)


def test_widened_columns_are_built_once_and_shared_by_sub_batches():
    """An MNA batch and its ``select`` sub-batches of one size share one
    widened set per width, built on first use."""
    from repro.spice import Circuit, dc_source, Resistor
    from repro.spice.elements.mosfet import Mosfet
    from repro.spice.mna import MnaAssembler

    n_model, p_model = _mixed_devices()[:3:2]

    def inverter(level):
        c = Circuit()
        c.add(dc_source("VDD", "vdd", "0", 1.0))
        c.add(dc_source("VIN", "in", "0", level))
        c.add(Mosfet("MP", "out", "in", "vdd", p_model))
        c.add(Mosfet("MN", "out", "in", "0", n_model))
        c.add(Resistor("RL", "out", "0", 1e6))
        return c

    batch = MnaAssembler([inverter(v) for v in (0.0, 0.5, 1.0)])
    devices = batch._devices
    assert batch._wide == (devices.widened(15), devices.widened(9))
    first, second = batch.select((0, 2)), batch.select((1, 2))
    assert first._wide[0] is second._wide[0] is devices.widened(10)
    assert first._wide[1] is second._wide[1] is devices.widened(6)
    one = first.select((1,))
    assert one._wide[0] is batch.select((0,))._wide[0]
    assert one._wide[0] is devices.widened(5)
    assert one._wide[0] is not first._wide[0]
    # One entry per width: 5·K' and 3·K' for K' = 3, 2 and 1.
    assert sorted(w for kind, w in devices._cache if kind == "wide") == [
        3, 5, 6, 9, 10, 15]


def _perturbed(params, name):
    """``params`` with ``name`` moved inside its bounds."""
    from repro.compact.parameters import PARAMETER_SPECS
    spec = PARAMETER_SPECS[name]
    value = params[name]
    moved = value + 0.25 * (spec.upper - value) if value < spec.upper \
        else value - 0.25 * (value - spec.lower)
    return params.updated({name: moved})


def test_prelude_parameters_name_every_parameter_a_prelude_reads():
    """Moving a parameter that a prelude's entry does not list leaves
    that prelude unchanged: ``with_rows`` may share it."""
    from repro.compact.columns import PRELUDE_PARAMETERS
    from repro.compact.parameters import PARAMETER_SPECS

    base = default_parameters().updated({"UD": 0.5, "UCS": 1.5})
    model = BsimSoi4Lite(params=base, polarity=Polarity.PMOS)
    reference = DeviceColumns([model])
    for name in PARAMETER_SPECS:
        moved = DeviceColumns([BsimSoi4Lite(params=_perturbed(base, name),
                                            polarity=Polarity.PMOS)])
        for prelude, reads in PRELUDE_PARAMETERS.items():
            if name not in reads:
                assert repr(getattr(moved, prelude)) == repr(
                    getattr(reference, prelude)), (prelude, name)


@pytest.mark.parametrize("names", [
    ("CDSC", "U0", "UA", "UB", "UD", "UCS", "DVT0", "DVT1"),
    ("VTH0", "PVAG", "ETAB", "VSAT"),
    ("CKAPPA", "DELVT", "CF", "CGSO", "CGDO", "MOIN", "CGSL", "CGDL"),
    ("MOIN",),
])
def test_rows_equal_each_row_alone_bitwise(nmos, names):
    """``rows=`` shares the template's unfitted columns and preludes;
    each row still equals the model with that row's values alone."""
    from repro.compact.parameters import PARAMETER_SPECS
    rng = np.random.default_rng(len(names))
    rows = [{name: float(rng.uniform(PARAMETER_SPECS[name].lower,
                                     PARAMETER_SPECS[name].upper))
             for name in names} for _ in range(4)]
    if "UD" in names:
        rows[0]["UD"] = 0.0
        rows[1]["UCS"] = 2.0
    vgs = np.linspace(-0.2, 1.2, 15)
    ids = nmos.ids_magnitude(vgs, 0.05, rows=rows)
    cgg = nmos.cgg(vgs, rows=rows)
    again = nmos.ids_magnitude(vgs, 1.0, rows=rows[:2])
    for r, values in enumerate(rows):
        alone = nmos.with_params(values)
        assert _bits(ids[r]) == _bits(alone.ids_magnitude(vgs, 0.05))
        assert _bits(cgg[r]) == _bits(alone.cgg(vgs))
        if r < 2:
            assert _bits(again[r]) == _bits(alone.ids_magnitude(vgs, 1.0))


def test_rows_are_bounds_checked(nmos):
    from repro.errors import ExtractionError
    with pytest.raises(ExtractionError, match="outside bounds"):
        nmos.ids_magnitude(0.5, 0.05, rows=[{"U0": 0.02}, {"U0": 1e3}])
    with pytest.raises(ExtractionError, match="unknown parameter"):
        nmos.cgg(0.5, rows=[{"NOPE": 1.0}])
