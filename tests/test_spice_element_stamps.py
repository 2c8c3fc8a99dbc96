"""Direct verification of element stamps against their definitions."""

import numpy as np
import pytest

from repro.compact.model import BsimSoi4Lite
from repro.compact.parameters import default_parameters
from repro.spice import Circuit, dc_source
from repro.spice.elements.base import Stamper
from repro.spice.elements.capacitor import Capacitor
from repro.spice.elements.mosfet import Mosfet
from repro.spice.elements.resistor import Resistor
from repro.spice.mna import GMIN, MnaAssembler
from repro.tcad.device import Polarity


def make_stamper(nodes, branches=None):
    node_index = {n: i for i, n in enumerate(nodes)}
    branch_index = branches or {}
    n = len(nodes) + len(branch_index)
    return Stamper(node_index, branch_index, n)


def test_resistor_stamp_matrix():
    stamper = make_stamper(["a", "b"])
    Resistor("R1", "a", "b", 2e3).stamp_static(stamper, {}, 0.0)
    g = 5e-4
    expected = np.array([[g, -g], [-g, g]])
    assert np.allclose(stamper.matrix, expected)
    assert np.allclose(stamper.rhs, 0.0)


def test_resistor_stamp_to_ground_drops_ground_row():
    stamper = make_stamper(["a"])
    Resistor("R1", "a", "0", 1e3).stamp_static(stamper, {}, 0.0)
    assert stamper.matrix[0, 0] == pytest.approx(1e-3)


def test_resistor_current_helper():
    r = Resistor("R1", "a", "b", 1e3)
    assert r.current({"a": 1.0, "b": 0.25}) == pytest.approx(0.75e-3)


def test_capacitor_charge_and_jacobian():
    stamper = make_stamper(["a", "b"])
    cap = Capacitor("C1", "a", "b", 2e-15)
    q = np.zeros(2)
    c = np.zeros((2, 2))
    cap.stamp_dynamic(stamper, {"a": 0.8, "b": 0.3}, q, c)
    assert q[0] == pytest.approx(2e-15 * 0.5)
    assert q[1] == pytest.approx(-2e-15 * 0.5)
    assert np.allclose(c, np.array([[2e-15, -2e-15], [-2e-15, 2e-15]]))


def assembled_mosfet(model, voltages):
    """One MOSFET with every terminal held by a DC source, assembled
    through the grouped evaluation at the given terminal voltages.

    Returns the static (A, z) and dynamic (q, C) restricted to the
    d, g, s node block — the MOSFET's own entries (GMIN removed from
    the static diagonal; the sources stamp only branch rows/columns).
    """
    c = Circuit()
    c.add(Mosfet("M1", "d", "g", "s", model))
    for node in ("d", "g", "s"):
        c.add(dc_source(f"V{node}", node, "0", voltages[node]))
    assembler = MnaAssembler(c)
    assert [assembler.node_index[n] for n in ("d", "g", "s")] == [0, 1, 2]
    x = np.zeros(assembler.n_unknowns)
    x[:3] = [voltages[n] for n in ("d", "g", "s")]
    stamper = assembler.assemble_static(x, 0.0)
    matrix = stamper.matrix[:3, :3] - GMIN * np.eye(3)
    q, cap = assembler.assemble_dynamic(x)
    return matrix, stamper.rhs[:3], q[:3], cap[:3, :3]


def test_mosfet_stamp_consistency():
    """The stamped companion must reproduce I(v) at the linearisation
    point: A v - z contributions equal the true drain current."""
    model = BsimSoi4Lite(params=default_parameters(),
                         polarity=Polarity.NMOS)
    voltages = {"d": 0.7, "g": 0.9, "s": 0.1}
    matrix, rhs, _, _ = assembled_mosfet(model, voltages)

    v = np.array([voltages["d"], voltages["g"], voltages["s"]])
    # KCL residual at the drain row: sum(A[0,:] v) - z[0] = I_D.
    i_lin = float(matrix[0] @ v - rhs[0])
    i_true = model.ids(voltages["g"] - voltages["s"],
                       voltages["d"] - voltages["s"])
    assert i_lin == pytest.approx(i_true, rel=1e-6)
    # Source row carries the opposite current; gate row carries none.
    i_src = float(matrix[2] @ v - rhs[2])
    assert i_src == pytest.approx(-i_true, rel=1e-6)
    i_gate = float(matrix[1] @ v - rhs[1])
    assert i_gate == pytest.approx(0.0, abs=1e-18)


def test_mosfet_stamp_gm_matches_model():
    model = BsimSoi4Lite(params=default_parameters(),
                         polarity=Polarity.NMOS)
    voltages = {"d": 1.0, "g": 0.8, "s": 0.0}
    matrix, _, _, _ = assembled_mosfet(model, voltages)
    # A[d, g] is gm.
    d = 1e-4
    gm_ref = (model.ids(0.8 + d, 1.0) - model.ids(0.8 - d, 1.0)) / (2 * d)
    assert matrix[0, 1] == pytest.approx(gm_ref, rel=1e-6)


def test_mosfet_charge_stamp_conserves():
    model = BsimSoi4Lite(params=default_parameters(),
                         polarity=Polarity.NMOS)
    _, _, q, c = assembled_mosfet(model, {"d": 0.6, "g": 0.9, "s": 0.0})
    # Total stamped charge sums to zero (conservative model).
    assert q.sum() == pytest.approx(0.0, abs=1e-24)
    # Capacitance matrix rows sum to zero (charge depends on voltage
    # differences only).
    assert np.allclose(c.sum(axis=1), 0.0, atol=1e-18)


def test_mosfet_pmos_stamp_signs():
    model = BsimSoi4Lite(params=default_parameters(),
                         polarity=Polarity.PMOS)
    voltages = {"d": 0.0, "g": 0.0, "s": 1.0}  # PMOS fully on
    matrix, rhs, _, _ = assembled_mosfet(model, voltages)
    v = np.array([0.0, 0.0, 1.0])
    i_lin = float(matrix[0] @ v - rhs[0])
    assert i_lin < 0  # current flows out of the drain
